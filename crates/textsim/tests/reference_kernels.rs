//! The sequence kernels against an independent oracle.
//!
//! `scratch_kernels_are_bit_identical` (in the crate's unit proptests)
//! compares each `*_with` kernel with its allocating form, but the
//! allocating form delegates to the same code, so a change to a kernel
//! moves both sides at once. The [`reference`] module below is a
//! line-for-line copy of the plain char-based kernels (fresh buffers per
//! call, no byte path, no Monge-Elkan shortcut); every production kernel
//! must reproduce it to `f64::to_bits` on ASCII, mixed and non-ASCII
//! alphabets, including token bags that share tokens.
//!
//! Monge-Elkan skips the Jaro-Winkler call of two tokens whose char
//! signatures (one bit per char code modulo 64) are disjoint. Its
//! proptest draws bags from two disjoint alphabets that share one
//! letter, so most token pairs take the skip, and adds non-ASCII letters
//! whose codes agree modulo 64 with letters of the other alphabet
//! (`á` with `a`, `ķ` with `w`), so some pairs with no shared char still
//! reach the kernel.
//!
//! The fill's shared-work paths are checked here too: set counts against
//! a marked fixed bag against the merge-join, normalized Levenshtein and
//! Needleman-Wunsch read off one shared [`EditCounts`],
//! the ASCII exact match against the lowercased comparison it skips
//! (with `İ` and `Σ`, whose lowercase forms are not one ASCII byte), and
//! the batch Monge-Elkan over derived attributes, whose outer sums
//! follow the text order stored at derivation.
//!
//! Levenshtein and Needleman-Wunsch take a bit-parallel path when both
//! strings are ASCII and the shorter is at most 64 bytes, so the edit
//! kernels are also checked on strings up to 80 bytes over two- and
//! three-letter alphabets (long shared runs exercise the carries), with
//! the shorter side at exactly 63, 64 and 65 bytes, and on long text
//! that mixes ASCII with non-ASCII chars.

use proptest::prelude::*;
use zeroer_tabular::Value;
use zeroer_textsim::align::needleman_wunsch;
use zeroer_textsim::{
    exact_match, exact_match_lowercase, jaro, jaro_winkler, jaro_winkler_with, jaro_with,
    levenshtein, levenshtein_sim, levenshtein_sim_with, levenshtein_with, monge_elkan,
    monge_elkan_fixed_with, monge_elkan_with, needleman_wunsch_with, qgrams, set_counts_fixed_with,
    words, AttrDerived, DeriveConfig, Deriver, EditCounts, FixedBag, Interner, SetCounts,
    SimScratch, TokenBag,
};

/// The plain char-based kernels, kept as the parity reference.
mod reference {
    use zeroer_textsim::{Interner, TokenBag};

    pub fn levenshtein(a: &str, b: &str) -> usize {
        let ac: Vec<char> = a.chars().collect();
        let bc: Vec<char> = b.chars().collect();
        let (short, long) = if ac.len() <= bc.len() {
            (&ac, &bc)
        } else {
            (&bc, &ac)
        };
        if short.is_empty() {
            return long.len();
        }
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut curr = vec![0usize; short.len() + 1];
        for (i, &lc) in long.iter().enumerate() {
            curr[0] = i + 1;
            for (j, &sc) in short.iter().enumerate() {
                let cost = usize::from(lc != sc);
                curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[short.len()]
    }

    pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
        let la = a.chars().count();
        let lb = b.chars().count();
        let max = la.max(lb);
        if max == 0 {
            return 1.0;
        }
        1.0 - levenshtein(a, b) as f64 / max as f64
    }

    pub fn jaro(a: &str, b: &str) -> f64 {
        let ac: Vec<char> = a.chars().collect();
        let bc: Vec<char> = b.chars().collect();
        if ac.is_empty() && bc.is_empty() {
            return 1.0;
        }
        if ac.is_empty() || bc.is_empty() {
            return 0.0;
        }
        let window = (ac.len().max(bc.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; bc.len()];
        let mut a_matched = Vec::new();
        for (i, &ca) in ac.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(bc.len());
            for j in lo..hi {
                if !b_used[j] && bc[j] == ca {
                    b_used[j] = true;
                    a_matched.push(ca);
                    break;
                }
            }
        }
        let m = a_matched.len();
        if m == 0 {
            return 0.0;
        }
        let b_matched: Vec<char> = b_used
            .iter()
            .zip(&bc)
            .filter(|(u, _)| **u)
            .map(|(_, &c)| c)
            .collect();
        let t = a_matched
            .iter()
            .zip(&b_matched)
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = m as f64;
        (m / ac.len() as f64 + m / bc.len() as f64 + (m - t as f64) / m) / 3.0
    }

    pub fn jaro_winkler(a: &str, b: &str) -> f64 {
        const P: f64 = 0.1;
        const MAX_PREFIX: usize = 4;
        let j = jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(MAX_PREFIX)
            .take_while(|(x, y)| x == y)
            .count();
        (j + prefix as f64 * P * (1.0 - j)).min(1.0)
    }

    pub fn needleman_wunsch(a: &str, b: &str) -> f64 {
        const MATCH: f64 = 1.0;
        const MISMATCH: f64 = 0.0;
        const GAP: f64 = -0.5;
        let ac: Vec<char> = a.chars().collect();
        let bc: Vec<char> = b.chars().collect();
        if ac.is_empty() && bc.is_empty() {
            return 1.0;
        }
        if ac.is_empty() || bc.is_empty() {
            return 0.0;
        }
        let mut prev: Vec<f64> = (0..=bc.len()).map(|j| j as f64 * GAP).collect();
        let mut curr = vec![0.0f64; bc.len() + 1];
        for (i, &ca) in ac.iter().enumerate() {
            curr[0] = (i + 1) as f64 * GAP;
            for (j, &cb) in bc.iter().enumerate() {
                let sub = prev[j] + if ca == cb { MATCH } else { MISMATCH };
                curr[j + 1] = sub.max(prev[j + 1] + GAP).max(curr[j] + GAP);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        let raw = prev[bc.len()];
        (raw / ac.len().min(bc.len()) as f64).clamp(0.0, 1.0)
    }

    pub fn monge_elkan(interner: &Interner, a: &TokenBag, b: &TokenBag) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let mut a_toks: Vec<&str> = a.tokens(interner).collect();
        a_toks.sort_unstable();
        let mut total = 0.0;
        for ta in &a_toks {
            let best = b
                .tokens(interner)
                .map(|tb| jaro_winkler(ta, tb))
                .fold(0.0f64, f64::max);
            total += best;
        }
        total / a_toks.len() as f64
    }
}

/// Every production sequence kernel (allocating and scratch forms, the
/// scratch reused across calls) against the reference, to the bit.
fn assert_kernels_match(s: &mut SimScratch, a: &str, b: &str) {
    let lev = reference::levenshtein(a, b);
    assert_eq!(levenshtein(a, b), lev, "levenshtein({a:?}, {b:?})");
    assert_eq!(
        levenshtein_with(s, a, b),
        lev,
        "levenshtein_with({a:?}, {b:?})"
    );
    let bits = reference::levenshtein_sim(a, b).to_bits();
    assert_eq!(
        levenshtein_sim(a, b).to_bits(),
        bits,
        "levenshtein_sim({a:?}, {b:?})"
    );
    assert_eq!(levenshtein_sim_with(s, a, b).to_bits(), bits);
    let bits = reference::jaro(a, b).to_bits();
    assert_eq!(jaro(a, b).to_bits(), bits, "jaro({a:?}, {b:?})");
    assert_eq!(
        jaro_with(s, a, b).to_bits(),
        bits,
        "jaro_with({a:?}, {b:?})"
    );
    let bits = reference::jaro_winkler(a, b).to_bits();
    assert_eq!(
        jaro_winkler(a, b).to_bits(),
        bits,
        "jaro_winkler({a:?}, {b:?})"
    );
    assert_eq!(jaro_winkler_with(s, a, b).to_bits(), bits);
    let bits = reference::needleman_wunsch(a, b).to_bits();
    assert_eq!(
        needleman_wunsch(a, b).to_bits(),
        bits,
        "needleman_wunsch({a:?}, {b:?})"
    );
    assert_eq!(needleman_wunsch_with(s, a, b).to_bits(), bits);
}

/// Monge-Elkan in both argument orders against the reference.
fn assert_monge_elkan_matches(s: &mut SimScratch, it: &Interner, a: &TokenBag, b: &TokenBag) {
    for (x, y) in [(a, b), (b, a)] {
        let bits = reference::monge_elkan(it, x, y).to_bits();
        assert_eq!(monge_elkan(it, x, y).to_bits(), bits);
        assert_eq!(monge_elkan_with(s, it, x, y).to_bits(), bits);
    }
}

/// The batch form with `fixed` on each side, against the reference per
/// pair: a memoized token must score what the single-pair kernel scores,
/// and a stored text order must sum what the reference's sort sums.
fn assert_monge_elkan_fixed_matches(
    s: &mut SimScratch,
    it: &Interner,
    fixed: &AttrDerived,
    others: &[AttrDerived],
) {
    for side in [FixedBag::Outer, FixedBag::Inner] {
        let mut out = Vec::new();
        monge_elkan_fixed_with(s, it, fixed, side, others, &mut out);
        assert_eq!(out.len(), others.len());
        for (o, got) in others.iter().zip(out) {
            let want = match side {
                FixedBag::Outer => reference::monge_elkan(it, &fixed.word, &o.word),
                FixedBag::Inner => reference::monge_elkan(it, &o.word, &fixed.word),
            };
            assert_eq!(got.to_bits(), want.to_bits(), "{side:?}");
        }
    }
}

/// Each text derived as a one-attribute record, all against one
/// interner.
fn derive_all(texts: &[&str]) -> (Deriver, Vec<AttrDerived>) {
    let mut d = Deriver::new(DeriveConfig::default());
    let attrs = texts
        .iter()
        .map(|t| d.derive(&[Value::Str(t.to_string())]).attr(0).clone())
        .collect();
    (d, attrs)
}

/// Normalized Levenshtein and Needleman-Wunsch read off one shared
/// [`EditCounts`] against the reference DPs, to the bit.
fn assert_edit_counts_match(s: &mut SimScratch, a: &str, b: &str) {
    let counts = EditCounts::with(s, a, b);
    assert_eq!(
        counts.levenshtein_sim().to_bits(),
        reference::levenshtein_sim(a, b).to_bits(),
        "levenshtein_sim({a:?}, {b:?})"
    );
    assert_eq!(
        counts.needleman_wunsch().to_bits(),
        reference::needleman_wunsch(a, b).to_bits(),
        "needleman_wunsch({a:?}, {b:?})"
    );
}

/// The ASCII exact-match path against the lowercased comparison it
/// replaces, both argument orders.
fn assert_exact_match_matches(a: &str, b: &str) {
    for (x, y) in [(a, b), (b, a)] {
        assert_eq!(
            exact_match_lowercase(x, y).to_bits(),
            exact_match(&x.to_lowercase(), &y.to_lowercase()).to_bits(),
            "exact_match_lowercase({x:?}, {y:?})"
        );
    }
}

/// `a`'s words in reverse order plus `extra`: a bag that shares every
/// token of `a`, so Monge-Elkan's exact-token shortcut fires.
fn shares_tokens(a: &str, extra: &str) -> String {
    let mut w: Vec<&str> = a.split(' ').collect();
    w.reverse();
    format!("{} {extra}", w.join(" "))
}

/// `a` with `del` bytes removed at `at` and `ins` spliced in there: a
/// near copy, so the two strings share long runs.
fn near_copy(a: &str, at: usize, ins: &str, del: usize) -> String {
    let at = at.min(a.len());
    let end = (at + del).min(a.len());
    format!("{}{ins}{}", &a[..at], &a[end..])
}

const ASCII: &str = "[a-fA-C0-2 ]{0,12}";
const BINARY_80: &str = "[ab]{0,80}";
const TERNARY_80: &str = "[abc]{0,80}";
const MIXED: &str = "[a-eéü日本 ]{0,12}";
const NON_ASCII: &str = "[éüßø日本語 ]{0,12}";
/// Words over `abcd`, the shared `m`, and `ķ` (U+0137), whose code is
/// `w`'s modulo 64.
const LEFT_HALF: &str = "[abcdmķ ]{0,16}";
/// Words over `wxyz`, the shared `m`, and `á` (U+00E1), whose code is
/// `a`'s modulo 64.
const RIGHT_HALF: &str = "[wxyzmá ]{0,16}";
/// Upper and lower case, ASCII and not, including letters whose Unicode
/// lowercase is not one ASCII byte (`İ`, `Σ`).
const CASED: &str = "[aAbBiIzZİıΣσς ]{0,8}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sequence_kernels_match_reference_on_ascii(a in ASCII, b in ASCII) {
        assert_kernels_match(&mut SimScratch::new(), &a, &b);
    }

    #[test]
    fn sequence_kernels_match_reference_on_mixed(a in MIXED, b in MIXED) {
        assert_kernels_match(&mut SimScratch::new(), &a, &b);
    }

    #[test]
    fn sequence_kernels_match_reference_on_non_ascii(a in NON_ASCII, b in NON_ASCII) {
        assert_kernels_match(&mut SimScratch::new(), &a, &b);
    }

    #[test]
    fn sequence_kernels_match_reference_across_alphabets(a in ASCII, b in MIXED, c in NON_ASCII) {
        // One scratch across ASCII and non-ASCII calls in every order:
        // the byte and char paths must not leak state into each other.
        let mut s = SimScratch::new();
        for (x, y) in [(&a, &b), (&b, &c), (&c, &a), (&a, &a), (&b, &a), (&c, &c)] {
            assert_kernels_match(&mut s, x, y);
        }
    }

    #[test]
    fn monge_elkan_matches_reference(a in MIXED, b in ASCII, c in NON_ASCII) {
        let mut it = Interner::new();
        let mut s = SimScratch::new();
        let shared = shares_tokens(&a, &c);
        let bags: Vec<TokenBag> = [&a, &b, &c, &shared]
            .iter()
            .map(|t| words(&mut it, t))
            .collect();
        for x in &bags {
            for y in &bags {
                assert_monge_elkan_matches(&mut s, &it, x, y);
            }
        }
    }

    #[test]
    fn monge_elkan_fixed_matches_reference(fixed in MIXED, a in ASCII, b in MIXED, c in NON_ASCII) {
        // Small alphabets make tokens recur across bags, so memo hits,
        // exact-token hits and empty bags all occur; one scratch serves
        // several batches, so the memo must come back empty.
        let shared = shares_tokens(&fixed, &a);
        let (d, attrs) = derive_all(&[&fixed, &a, &b, &c, &shared, ""]);
        let mut s = SimScratch::new();
        for f in &attrs {
            assert_monge_elkan_fixed_matches(&mut s, d.interner(), f, &attrs);
        }
    }

    #[test]
    fn set_counts_fixed_match_merge_join(fixed in MIXED, a in ASCII, b in MIXED, c in NON_ASCII) {
        // Word and 3-gram bags with either side fixed, one scratch across
        // calls: each batch count equals the pair's merge-join count, and
        // the bitset comes back clear.
        let mut it = Interner::new();
        let texts = [&fixed, &a, &b, &c, &shares_tokens(&fixed, &a), &String::new()];
        let mut s = SimScratch::new();
        for bag in [|it: &mut Interner, t: &str| words(it, t), |it: &mut Interner, t: &str| qgrams(it, t, 3)] {
            let bags: Vec<TokenBag> = texts.iter().map(|t| bag(&mut it, t)).collect();
            for f in &bags {
                for side in [FixedBag::Outer, FixedBag::Inner] {
                    let mut out = Vec::new();
                    set_counts_fixed_with(&mut s, &it, f, side, &bags, &mut out);
                    for (o, got) in bags.iter().zip(out) {
                        let want = match side {
                            FixedBag::Outer => SetCounts::of(f, o),
                            FixedBag::Inner => SetCounts::of(o, f),
                        };
                        prop_assert_eq!(got, want, "{:?}", side);
                    }
                }
            }
        }
    }

    #[test]
    fn shared_edit_counts_match_reference(a in MIXED, b in ASCII, c in NON_ASCII, long in TERNARY_80) {
        // One scratch across the byte and char paths and the 64-byte
        // word boundary.
        let mut s = SimScratch::new();
        for (x, y) in [(&a, &b), (&b, &c), (&c, &a), (&a, &a), (&long, &b), (&b, &long)] {
            assert_edit_counts_match(&mut s, x, y);
        }
    }

    #[test]
    fn exact_match_lowercase_matches_reference(a in CASED, b in CASED) {
        assert_exact_match_matches(&a, &b);
        assert_exact_match_matches(&a, &a.to_uppercase());
        assert_exact_match_matches(&a, &a.to_lowercase());
    }

    #[test]
    fn monge_elkan_matches_reference_on_disjoint_alphabets(
        l1 in LEFT_HALF,
        l2 in LEFT_HALF,
        r1 in RIGHT_HALF,
        r2 in RIGHT_HALF,
    ) {
        // Every Monge-Elkan path against the reference on bags whose
        // tokens mostly share no char: the single-pair kernel in both
        // argument orders, and the batch form with each bag fixed on
        // each side. One scratch serves every call.
        let shared = shares_tokens(&l1, &r1);
        let texts = [&l1, &l2, &r1, &r2, &shared];
        let mut s = SimScratch::new();
        let (d, attrs) = derive_all(&texts.map(String::as_str));
        for x in &attrs {
            for y in &attrs {
                assert_monge_elkan_matches(&mut s, d.interner(), &x.word, &y.word);
            }
            assert_monge_elkan_fixed_matches(&mut s, d.interner(), x, &attrs);
        }
    }

    #[test]
    fn monge_elkan_matches_reference_on_shared_tokens(a in ASCII, extra in ASCII) {
        let mut it = Interner::new();
        let (ta, tb) = (words(&mut it, &a), words(&mut it, &shares_tokens(&a, &extra)));
        assert_monge_elkan_matches(&mut SimScratch::new(), &it, &ta, &tb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edit_kernels_match_reference_up_to_80_bytes(a in BINARY_80, b in TERNARY_80, c in BINARY_80) {
        // One scratch for every call: the mask table must come back clean.
        let mut s = SimScratch::new();
        for (x, y) in [(&a, &b), (&b, &a), (&a, &c), (&c, &b), (&a, &a)] {
            assert_kernels_match(&mut s, x, y);
        }
    }

    #[test]
    fn edit_kernels_match_reference_on_near_copies(
        a in TERNARY_80,
        at in 0usize..81,
        ins in "[abc]{0,3}",
        del in 0usize..4,
    ) {
        let b = near_copy(&a, at, &ins, del);
        let mut s = SimScratch::new();
        assert_kernels_match(&mut s, &a, &b);
        assert_kernels_match(&mut s, &b, &a);
    }

    #[test]
    fn edit_kernels_match_reference_at_the_word_boundary(
        a63 in "[ab]{63}",
        a64 in "[ab]{64}",
        a65 in "[ab]{65}",
        long in "[ab]{65,80}",
        at in 0usize..64,
    ) {
        let mut s = SimScratch::new();
        for short in [&a63, &a64, &a65] {
            assert_kernels_match(&mut s, short, &long);
            assert_kernels_match(&mut s, &long, short);
            let twin = near_copy(short, at, "b", 1);
            assert_kernels_match(&mut s, short, &twin);
        }
        assert_kernels_match(&mut s, &a63, &a64);
        assert_kernels_match(&mut s, &a65, &a64);
    }
}

#[test]
fn edit_kernels_match_reference_on_long_mixed_text() {
    // Above 64 bytes and not all ASCII: the char DP, between bit-parallel
    // calls on the same scratch.
    let ascii = "ab".repeat(40);
    let mixed = format!("{}é{}", "ab".repeat(33), "ba".repeat(4));
    let accented = "日本ab".repeat(20);
    let mut s = SimScratch::new();
    for (x, y) in [
        (&ascii, &mixed),
        (&mixed, &ascii),
        (&mixed, &accented),
        (&accented, &ascii[..60].to_string()),
        (&ascii, &ascii[1..].to_string()),
    ] {
        assert_kernels_match(&mut s, x, y);
    }
}

#[test]
fn exact_match_lowercase_matches_reference_on_case_folding() {
    for (a, b) in [
        ("ACM", "acm"),
        ("AcM", "aCm"),
        ("acm", "vldb"),
        ("", ""),
        ("a", ""),
        ("İstanbul", "istanbul"),
        ("İstanbul", "i\u{307}stanbul"),
        ("ΟΔΟΣ", "οδος"),
        ("ΟΔΟΣ", "οδοσ"),
        ("Σ", "σ"),
        ("STRASSE", "straße"),
    ] {
        assert_exact_match_matches(a, b);
    }
}

#[test]
fn reference_agrees_with_textbook_values() {
    // Guards the oracle itself against a transcription slip.
    assert_eq!(reference::levenshtein("kitten", "sitting"), 3);
    assert!((reference::jaro("MARTHA", "MARHTA") - 0.944_444).abs() < 1e-5);
    assert!((reference::jaro_winkler("DIXON", "DICKSONX") - 0.813_333).abs() < 1e-5);
    assert_eq!(reference::needleman_wunsch("hello", "hello"), 1.0);
    let mut it = Interner::new();
    let (a, b) = (words(&mut it, "alpha beta"), words(&mut it, "beta gamma"));
    assert_monge_elkan_matches(&mut SimScratch::new(), &it, &a, &b);
}
