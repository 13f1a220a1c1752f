//! Global and local sequence alignment similarities.
//!
//! Magellan applies Needleman-Wunsch and Smith-Waterman to short string
//! attributes. We use unit match reward, zero mismatch reward and a gap
//! cost of 0.5, then normalize by the length of the shorter string so the
//! result lands in `[0, 1]` — the same normalization py_stringmatching
//! applies.
//!
//! Smith-Waterman runs its dynamic program. Needleman-Wunsch does not:
//! under these scores its optimum is a closed form of the Levenshtein
//! distance (see [`EditCounts::needleman_wunsch`]), which the
//! bit-parallel Levenshtein kernel computes without a DP table.

use crate::edit::EditCounts;
use crate::scratch::SimScratch;

/// Score parameters shared by both aligners.
const MATCH: f64 = 1.0;
const MISMATCH: f64 = 0.0;
const GAP: f64 = -0.5;

// Needleman-Wunsch reads its score off the Levenshtein distance, which
// holds for exactly these parameters; changing them needs the DP back.
const _: () = assert!(
    MATCH == 1.0 && MISMATCH == 0.0 && GAP == -0.5,
    "EditCounts::needleman_wunsch's closed form assumes match 1, mismatch 0, gap -0.5"
);

/// Needleman-Wunsch global alignment similarity, normalized to `[0, 1]`
/// by `min(|a|, |b|)`. Two empty strings score 1.
pub fn needleman_wunsch(a: &str, b: &str) -> f64 {
    needleman_wunsch_with(&mut SimScratch::new(), a, b)
}

/// [`needleman_wunsch`] reusing `scratch`'s buffers for the Levenshtein
/// distance it is read off ([`EditCounts::needleman_wunsch`]).
pub fn needleman_wunsch_with(scratch: &mut SimScratch, a: &str, b: &str) -> f64 {
    EditCounts::with(scratch, a, b).needleman_wunsch()
}

impl EditCounts {
    /// Normalized Needleman-Wunsch similarity read off the Levenshtein
    /// distance; two empty strings score 1.
    ///
    /// With `m = |a|` and `n = |b|` chars, an alignment with `k` aligned
    /// columns, `s` of them matches, scores `s·MATCH + (k − s)·MISMATCH +
    /// (m + n − 2k)·GAP = s + k − (m + n)/2`. Read as an edit script it
    /// costs `(k − s)` substitutions plus `m + n − 2k` insertions and
    /// deletions, `m + n − k − s` unit edits. So score and cost sum to
    /// `(m + n)/2` for every alignment, and the best score is
    /// `(m + n)/2 − levenshtein(a, b)`.
    ///
    /// Every DP cell is a multiple of 0.5 far below 2⁵², so the DP
    /// computed its optimum without rounding, and the closed form is that
    /// same `f64`. The normalization and the empty-string cases are
    /// unchanged, so the result is bit-identical to the DP's.
    pub fn needleman_wunsch(self) -> f64 {
        let (m, n) = (self.a, self.b);
        if m == 0 && n == 0 {
            return 1.0;
        }
        if m == 0 || n == 0 {
            return 0.0;
        }
        let raw = (m + n) as f64 / 2.0 - self.dist as f64;
        (raw / m.min(n) as f64).clamp(0.0, 1.0)
    }
}

/// Smith-Waterman local alignment similarity, normalized to `[0, 1]` by
/// `min(|a|, |b|)`. Finds the best-matching substring pair, so it is
/// robust to long surrounding noise (product descriptions). Two empty
/// strings score 1.
pub fn smith_waterman(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut prev = vec![0.0f64; b.len() + 1];
    let mut curr = vec![0.0f64; b.len() + 1];
    let mut best = 0.0f64;
    for &ca in &a {
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + if ca == cb { MATCH } else { MISMATCH };
            let v = sub.max(prev[j + 1] + GAP).max(curr[j] + GAP).max(0.0);
            curr[j + 1] = v;
            best = best.max(v);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    (best / a.len().min(b.len()) as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_score_one() {
        assert_eq!(needleman_wunsch("hello", "hello"), 1.0);
        assert_eq!(smith_waterman("hello", "hello"), 1.0);
    }

    #[test]
    fn empty_string_conventions() {
        assert_eq!(needleman_wunsch("", ""), 1.0);
        assert_eq!(needleman_wunsch("", "x"), 0.0);
        assert_eq!(smith_waterman("", ""), 1.0);
        assert_eq!(smith_waterman("x", ""), 0.0);
    }

    #[test]
    fn smith_waterman_finds_local_match_in_noise() {
        // "acme" embedded in noise should still score 1.0 locally.
        let sim = smith_waterman("acme", "zzzzacmezzzz");
        assert_eq!(sim, 1.0);
        // Needleman-Wunsch (global) must penalize the surrounding noise to
        // below the local score.
        assert!(needleman_wunsch("acme", "zzzzacmezzzz") < sim);
    }

    #[test]
    fn disjoint_strings_score_low() {
        assert!(smith_waterman("abc", "xyz") < 0.5);
        assert!(needleman_wunsch("abc", "xyz") < 0.5);
    }

    #[test]
    fn results_are_in_unit_range() {
        for (a, b) in [
            ("a", "ab"),
            ("kitten", "sitting"),
            ("ab", "ba"),
            ("x", "yyyyy"),
        ] {
            for f in [needleman_wunsch, smith_waterman] {
                let v = f(a, b);
                assert!((0.0..=1.0).contains(&v), "{a} vs {b} gave {v}");
            }
        }
    }

    #[test]
    fn symmetric_inputs() {
        for (a, b) in [("kitten", "sitting"), ("abc", "abd")] {
            assert!((needleman_wunsch(a, b) - needleman_wunsch(b, a)).abs() < 1e-12);
            assert!((smith_waterman(a, b) - smith_waterman(b, a)).abs() < 1e-12);
        }
    }
}
