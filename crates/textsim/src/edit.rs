//! Edit-distance-family measures: Levenshtein, Jaro, Jaro-Winkler.
//!
//! Each measure has two forms: an allocating convenience function and a
//! `*_with` variant that reuses a [`SimScratch`]'s buffers. The
//! convenience form delegates to the `*_with` form with a fresh scratch,
//! so both execute the same operation sequence and return bit-identical
//! results — the batched scoring path relies on this.

use crate::scratch::SimScratch;

/// Levenshtein (edit) distance between two strings, in Unicode scalar
/// values. Classic dynamic program with two rolling rows — O(|a|·|b|)
/// time, O(min(|a|,|b|)) space — or, for ASCII strings whose shorter
/// side fits in a machine word, its bit-parallel form (O(|a|+|b|)).
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_with(&mut SimScratch::new(), a, b)
}

/// [`levenshtein`] reusing `scratch`'s char, DP-row and mask buffers.
///
/// When both strings are ASCII and the shorter is at most 64 bytes, the
/// distance comes from a bit-parallel kernel over the bytes (Myers'
/// algorithm, one machine word per DP column); every other input runs
/// the char DP. The distance is an integer either way, so the two paths
/// agree exactly.
pub fn levenshtein_with(scratch: &mut SimScratch, a: &str, b: &str) -> usize {
    if a.len().min(b.len()) <= 64 && a.is_ascii() && b.is_ascii() {
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        return levenshtein_bits(&mut scratch.peq, short.as_bytes(), long.as_bytes());
    }
    let mut ac = std::mem::take(&mut scratch.a_chars);
    let mut bc = std::mem::take(&mut scratch.b_chars);
    let mut prev = std::mem::take(&mut scratch.row_a);
    let mut curr = std::mem::take(&mut scratch.row_b);
    ac.clear();
    ac.extend(a.chars());
    bc.clear();
    bc.extend(b.chars());
    // Keep the shorter string in the inner dimension for memory.
    let (short, long) = if ac.len() <= bc.len() {
        (&ac, &bc)
    } else {
        (&bc, &ac)
    };
    let dist = if short.is_empty() {
        long.len()
    } else {
        prev.clear();
        prev.extend(0..=short.len());
        curr.clear();
        curr.resize(short.len() + 1, 0);
        for (i, &lc) in long.iter().enumerate() {
            curr[0] = i + 1;
            for (j, &sc) in short.iter().enumerate() {
                let cost = usize::from(lc != sc);
                curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[short.len()]
    };
    scratch.a_chars = ac;
    scratch.b_chars = bc;
    scratch.row_a = prev;
    scratch.row_b = curr;
    dist
}

/// Levenshtein distance of two ASCII byte strings with
/// `pattern.len() <= 64`: Myers' bit-vector algorithm (*A fast
/// bit-vector algorithm for approximate string matching based on
/// dynamic programming*, J. ACM 46(3), 1999) in Hyyrö's edit-distance
/// form.
///
/// Bit `i` of `pv`/`mv` says whether the DP column steps up/down by one
/// between rows `i` and `i + 1`; one text byte advances the whole column
/// with a few word operations, and the distance is tracked at the
/// pattern's last row. The top boundary `D[0][j] = j` shifts a `1` into
/// the horizontal deltas. Bits above the pattern only ever carry upward,
/// so they never reach the tracked row.
///
/// `peq` is all zero on entry and on return: the call sets one mask per
/// distinct pattern byte and clears exactly those.
fn levenshtein_bits(peq: &mut Vec<u64>, pattern: &[u8], text: &[u8]) -> usize {
    debug_assert!(pattern.len() <= 64 && pattern.is_ascii() && text.is_ascii());
    let m = pattern.len();
    if m == 0 {
        return text.len();
    }
    if peq.is_empty() {
        peq.resize(128, 0);
    }
    for (i, &c) in pattern.iter().enumerate() {
        peq[usize::from(c)] |= 1 << i;
    }
    let last = 1u64 << (m - 1);
    let (mut pv, mut mv, mut dist) = (!0u64, 0u64, m);
    for &c in text {
        let eq = peq[usize::from(c)];
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            dist += 1;
        } else if mh & last != 0 {
            dist -= 1;
        }
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    for &c in pattern {
        peq[usize::from(c)] = 0;
    }
    dist
}

/// What the Levenshtein-based measures read of a string pair: the edit
/// distance and both lengths, in Unicode scalar values.
///
/// [`levenshtein_sim_with`] and [`crate::align::needleman_wunsch_with`]
/// are each one formula over these counts, so a caller that needs both
/// on one pair runs the distance once ([`EditCounts::with`]) and gets
/// the same bits from [`EditCounts::levenshtein_sim`] and
/// [`EditCounts::needleman_wunsch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditCounts {
    /// `levenshtein(a, b)`.
    pub dist: usize,
    /// `|a|` in chars.
    pub a: usize,
    /// `|b|` in chars.
    pub b: usize,
}

impl EditCounts {
    /// The counts of `a` against `b`, reusing `scratch`'s buffers.
    pub fn with(scratch: &mut SimScratch, a: &str, b: &str) -> Self {
        Self {
            dist: levenshtein_with(scratch, a, b),
            a: a.chars().count(),
            b: b.chars().count(),
        }
    }

    /// Normalized Levenshtein similarity `1 − dist / max(|a|, |b|)`; two
    /// empty strings score 1.
    pub fn levenshtein_sim(self) -> f64 {
        let max = self.a.max(self.b);
        if max == 0 {
            return 1.0;
        }
        1.0 - self.dist as f64 / max as f64
    }
}

/// Normalized Levenshtein similarity: `1 − dist / max(|a|, |b|)` in
/// `[0, 1]`. Two empty strings are defined as maximally similar.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    levenshtein_sim_with(&mut SimScratch::new(), a, b)
}

/// [`levenshtein_sim`] reusing `scratch`'s buffers.
pub fn levenshtein_sim_with(scratch: &mut SimScratch, a: &str, b: &str) -> f64 {
    EditCounts::with(scratch, a, b).levenshtein_sim()
}

/// Jaro similarity in `[0, 1]`.
///
/// Matching window is `max(|a|,|b|)/2 − 1`; the score combines match count
/// and transposition count per the standard definition. Two empty strings
/// score 1; empty vs non-empty scores 0.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_with(&mut SimScratch::new(), a, b)
}

/// [`jaro`] reusing `scratch`'s buffers.
///
/// Jaro reads nothing of its inputs but element equality and the two
/// lengths. When both strings are ASCII, bytes and chars correspond one
/// to one, so the shared core runs directly over the bytes and skips the
/// `char` decode; otherwise it runs over the decoded `char` buffers.
/// Both paths count the same matches and transpositions, so the result
/// is the same to the bit.
pub fn jaro_with(scratch: &mut SimScratch, a: &str, b: &str) -> f64 {
    let SimScratch {
        a_chars,
        b_chars,
        a_used,
        b_used,
        ..
    } = scratch;
    if a.is_ascii() && b.is_ascii() {
        return jaro_core(a.as_bytes(), b.as_bytes(), a_used, b_used);
    }
    a_chars.clear();
    a_chars.extend(a.chars());
    b_chars.clear();
    b_chars.extend(b.chars());
    jaro_core(a_chars, b_chars, a_used, b_used)
}

/// The Jaro score of two symbol sequences, with reusable per-position
/// match flags.
fn jaro_core<T: Copy + PartialEq>(
    a: &[T],
    b: &[T],
    a_used: &mut Vec<bool>,
    b_used: &mut Vec<bool>,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    a_used.clear();
    a_used.resize(a.len(), false);
    b_used.clear();
    b_used.resize(b.len(), false);
    let mut m = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                a_used[i] = true;
                m += 1;
                break;
            }
        }
    }
    if m == 0 {
        return 0.0;
    }
    // Count transpositions: compare matched sequences in order.
    let a_matched = a
        .iter()
        .zip(a_used.iter())
        .filter_map(|(x, &u)| u.then_some(x));
    let b_matched = b
        .iter()
        .zip(b_used.iter())
        .filter_map(|(y, &u)| u.then_some(y));
    let t = a_matched.zip(b_matched).filter(|(x, y)| x != y).count() / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t as f64) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by up to 4 characters of common
/// prefix with scaling factor `p = 0.1`. Range `[0, 1]`.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_with(&mut SimScratch::new(), a, b)
}

/// [`jaro_winkler`] reusing `scratch`'s buffers.
pub fn jaro_winkler_with(scratch: &mut SimScratch, a: &str, b: &str) -> f64 {
    const P: f64 = 0.1;
    const MAX_PREFIX: usize = 4;
    let j = jaro_with(scratch, a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(MAX_PREFIX)
        .take_while(|(x, y)| x == y)
        .count();
    (j + prefix as f64 * P * (1.0 - j)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_textbook_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn levenshtein_handles_unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn levenshtein_sim_range_and_edges() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("abc", ""), 0.0);
        assert!((levenshtein_sim("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn jaro_textbook_cases() {
        // Standard reference values used across record-linkage literature.
        assert!((jaro("MARTHA", "MARHTA") - 0.944_444).abs() < 1e-5);
        assert!((jaro("DIXON", "DICKSONX") - 0.766_667).abs() < 1e-5);
        assert!((jaro("JELLYFISH", "SMELLYFISH") - 0.896_296).abs() < 1e-5);
    }

    #[test]
    fn jaro_disjoint_strings_score_zero() {
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_textbook_cases() {
        assert!((jaro_winkler("MARTHA", "MARHTA") - 0.961_111).abs() < 1e-5);
        assert!((jaro_winkler("DIXON", "DICKSONX") - 0.813_333).abs() < 1e-5);
    }

    #[test]
    fn jaro_winkler_prefix_bonus_caps_at_four() {
        let long_prefix = jaro_winkler("abcdefgh", "abcdefxx");
        let four_prefix = jaro_winkler("abcdxxxx", "abcdyyyy");
        assert!(long_prefix <= 1.0);
        assert!(four_prefix <= 1.0);
    }

    #[test]
    fn empty_string_conventions() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("", "a"), 0.0);
        assert_eq!(jaro_winkler("", ""), 1.0);
    }
}

/// Hamming similarity on equal-length prefixes: the fraction of aligned
/// positions that agree, penalized by the length difference. Range
/// `[0, 1]`. Fast positional measure for code-like attributes (phone
/// numbers, zip codes).
pub fn hamming_sim(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let max = a.len().max(b.len());
    if max == 0 {
        return 1.0;
    }
    let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count();
    agree as f64 / max as f64
}

/// Normalized common-prefix similarity: `|lcp(a, b)| / max(|a|, |b|)` in
/// `[0, 1]` — useful for hierarchical codes and truncated values.
pub fn prefix_sim(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let max = la.max(lb);
    if max == 0 {
        return 1.0;
    }
    let lcp = a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count();
    lcp as f64 / max as f64
}

#[cfg(test)]
mod positional_tests {
    use super::*;

    #[test]
    fn hamming_counts_aligned_agreement() {
        assert_eq!(hamming_sim("abcd", "abcd"), 1.0);
        assert_eq!(hamming_sim("abcd", "abce"), 0.75);
        assert_eq!(hamming_sim("", ""), 1.0);
        assert_eq!(hamming_sim("abc", ""), 0.0);
        // Length difference is an implicit penalty.
        assert_eq!(hamming_sim("ab", "abcd"), 0.5);
    }

    #[test]
    fn prefix_sim_measures_common_prefix() {
        assert_eq!(prefix_sim("data", "database"), 0.5);
        assert_eq!(prefix_sim("same", "same"), 1.0);
        assert_eq!(prefix_sim("x", "y"), 0.0);
        assert_eq!(prefix_sim("", ""), 1.0);
    }
}
