//! Numeric and categorical similarity measures.

/// Exact-match similarity: 1.0 if equal, 0.0 otherwise. Magellan applies
/// this to boolean and short categorical attributes.
pub fn exact_match<T: PartialEq>(a: &T, b: &T) -> f64 {
    if a == b {
        1.0
    } else {
        0.0
    }
}

/// [`exact_match`] of two texts' lowercase forms,
/// `exact_match(&a.to_lowercase(), &b.to_lowercase())`, without
/// allocating when both texts are ASCII.
///
/// On ASCII, `to_lowercase` maps exactly `A`–`Z` to `a`–`z`, byte for
/// byte, which is what [`str::eq_ignore_ascii_case`] compares under, so
/// the two agree there. Any other input lowercases through Unicode
/// (`İ`, final `Σ`), where that does not hold, and keeps the allocating
/// comparison.
pub fn exact_match_lowercase(a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        return if a.eq_ignore_ascii_case(b) { 1.0 } else { 0.0 };
    }
    exact_match(&a.to_lowercase(), &b.to_lowercase())
}

/// Absolute-difference similarity for numeric attributes:
/// `1 − |a − b| / max(|a|, |b|)`, clamped to `[0, 1]`.
///
/// Two zeros are maximally similar; values of opposite sign degrade toward
/// zero similarity. NaN inputs yield 0 (treated as "unknown ≠ unknown",
/// imputation is handled upstream in the feature pipeline).
pub fn abs_diff_sim(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        return 0.0;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        return 1.0;
    }
    (1.0 - (a - b).abs() / denom).clamp(0.0, 1.0)
}

/// Relative-difference similarity: `1 / (1 + |a − b| / (1 + min(|a|,|b|)))`
/// in `(0, 1]` — a smoother alternative that never hits exactly zero for
/// finite inputs, useful for attributes with heavy-tailed scales (prices).
pub fn rel_diff_sim(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        return 0.0;
    }
    1.0 / (1.0 + (a - b).abs() / (1.0 + a.abs().min(b.abs())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_on_strings_and_numbers() {
        assert_eq!(exact_match(&"a", &"a"), 1.0);
        assert_eq!(exact_match(&"a", &"b"), 0.0);
        assert_eq!(exact_match(&3, &3), 1.0);
    }

    #[test]
    fn abs_diff_identical_is_one() {
        assert_eq!(abs_diff_sim(5.0, 5.0), 1.0);
        assert_eq!(abs_diff_sim(0.0, 0.0), 1.0);
        assert_eq!(abs_diff_sim(-2.5, -2.5), 1.0);
    }

    #[test]
    fn abs_diff_known_values() {
        assert!((abs_diff_sim(10.0, 5.0) - 0.5).abs() < 1e-12);
        assert_eq!(abs_diff_sim(1.0, -1.0), 0.0);
        assert_eq!(abs_diff_sim(0.0, 7.0), 0.0);
    }

    #[test]
    fn abs_diff_nan_scores_zero() {
        assert_eq!(abs_diff_sim(f64::NAN, 1.0), 0.0);
        assert_eq!(abs_diff_sim(1.0, f64::NAN), 0.0);
    }

    #[test]
    fn rel_diff_monotone_in_gap() {
        let near = rel_diff_sim(100.0, 101.0);
        let far = rel_diff_sim(100.0, 200.0);
        assert!(near > far);
        assert_eq!(rel_diff_sim(3.0, 3.0), 1.0);
    }

    #[test]
    fn rel_diff_in_unit_range() {
        for (a, b) in [(0.0, 1e9), (-5.0, 5.0), (1e-9, 1e9)] {
            let v = rel_diff_sim(a, b);
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
