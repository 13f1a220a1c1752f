//! The similarity-function registry: which functions apply to which
//! attribute type.

use serde::{Deserialize, Serialize};
use zeroer_tabular::{AttrType, Value};
use zeroer_textsim::align::{needleman_wunsch, smith_waterman};
use zeroer_textsim::intern::Interner;
use zeroer_textsim::tokenize::TokenBag;
use zeroer_textsim::{
    abs_diff_sim, cosine, dice, exact_match, jaccard, jaro_winkler, levenshtein_sim, monge_elkan,
    overlap_coefficient, qgrams, rel_diff_sim, words, EditCounts, SetCounts,
};

/// A set measure's formula over a bag pair's [`SetCounts`].
pub(crate) type SetMeasure = fn(SetCounts) -> f64;

/// A Levenshtein-based measure's formula over a text pair's
/// [`EditCounts`].
pub(crate) type EditMeasure = fn(EditCounts) -> f64;

/// The token bag a set measure reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SetBag {
    /// The 3-gram bag.
    Qgm3,
    /// The word bag.
    Word,
}

/// A similarity function identifier, as applied by the feature generator.
///
/// The suffix conventions mirror Magellan's feature names: `Qgm3` =
/// 3-gram tokens, `Word` = word tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimFunction {
    /// Jaccard over 3-grams (`jac_qgm_3`).
    JaccardQgm3,
    /// Set cosine over 3-grams (`cos_qgm_3`).
    CosineQgm3,
    /// Jaccard over word tokens (`jac_dlm`).
    JaccardWord,
    /// Set cosine over word tokens (`cos_dlm`).
    CosineWord,
    /// Dice over word tokens.
    DiceWord,
    /// Overlap coefficient over word tokens.
    OverlapWord,
    /// Normalized Levenshtein similarity (`lev_sim`).
    Levenshtein,
    /// Jaro-Winkler (`jwn`).
    JaroWinkler,
    /// Monge-Elkan with Jaro-Winkler base (`mel`).
    MongeElkan,
    /// Normalized Needleman-Wunsch (`nmw`).
    NeedlemanWunsch,
    /// Normalized Smith-Waterman (`sw`).
    SmithWaterman,
    /// Exact equality on the textual form (`exm`).
    ExactMatch,
    /// Absolute-difference similarity on numbers (`anm`).
    AbsDiff,
    /// Relative-difference similarity on numbers.
    RelDiff,
}

impl SimFunction {
    /// Short name used in generated feature names.
    pub fn short_name(self) -> &'static str {
        match self {
            SimFunction::JaccardQgm3 => "jac_qgm3",
            SimFunction::CosineQgm3 => "cos_qgm3",
            SimFunction::JaccardWord => "jac_word",
            SimFunction::CosineWord => "cos_word",
            SimFunction::DiceWord => "dice_word",
            SimFunction::OverlapWord => "ovl_word",
            SimFunction::Levenshtein => "lev",
            SimFunction::JaroWinkler => "jwn",
            SimFunction::MongeElkan => "mel",
            SimFunction::NeedlemanWunsch => "nmw",
            SimFunction::SmithWaterman => "sw",
            SimFunction::ExactMatch => "exm",
            SimFunction::AbsDiff => "anm",
            SimFunction::RelDiff => "rnm",
        }
    }

    /// Whether the function consumes token bags (vs raw strings/numbers).
    pub fn needs_tokens(self) -> bool {
        matches!(
            self,
            SimFunction::JaccardQgm3
                | SimFunction::CosineQgm3
                | SimFunction::JaccardWord
                | SimFunction::CosineWord
                | SimFunction::DiceWord
                | SimFunction::OverlapWord
                | SimFunction::MongeElkan
        )
    }

    /// For a set measure (Jaccard, cosine, Dice, overlap), the bag it
    /// reads and its formula over the pair's [`SetCounts`] — the same
    /// code [`Self::apply_tokens`] runs. `None` for every other function.
    pub(crate) fn set_measure(self) -> Option<(SetBag, SetMeasure)> {
        match self {
            SimFunction::JaccardQgm3 => Some((SetBag::Qgm3, SetCounts::jaccard)),
            SimFunction::CosineQgm3 => Some((SetBag::Qgm3, SetCounts::cosine)),
            SimFunction::JaccardWord => Some((SetBag::Word, SetCounts::jaccard)),
            SimFunction::CosineWord => Some((SetBag::Word, SetCounts::cosine)),
            SimFunction::DiceWord => Some((SetBag::Word, SetCounts::dice)),
            SimFunction::OverlapWord => Some((SetBag::Word, SetCounts::overlap)),
            _ => None,
        }
    }

    /// For a measure read off the Levenshtein distance (normalized
    /// Levenshtein, Needleman-Wunsch), its formula over the text pair's
    /// [`EditCounts`] — the same code [`Self::apply_text`] runs. `None`
    /// for every other function.
    pub(crate) fn edit_measure(self) -> Option<EditMeasure> {
        match self {
            SimFunction::Levenshtein => Some(EditCounts::levenshtein_sim),
            SimFunction::NeedlemanWunsch => Some(EditCounts::needleman_wunsch),
            _ => None,
        }
    }

    /// Applies the function to a pair of raw values, returning `None` when
    /// either side is missing (imputation happens downstream) and the
    /// similarity otherwise.
    ///
    /// This is the slow uncached path used by tests and one-off scoring;
    /// the bulk generator works from pre-derived records (interned token
    /// bags built once per record by `zeroer_textsim::derive`).
    pub fn apply(self, a: &Value, b: &Value) -> Option<f64> {
        if a.is_null() || b.is_null() {
            return None;
        }
        match self {
            SimFunction::AbsDiff => Some(abs_diff_sim(a.as_number()?, b.as_number()?)),
            SimFunction::RelDiff => Some(rel_diff_sim(a.as_number()?, b.as_number()?)),
            SimFunction::ExactMatch => Some(exact_match(
                &a.as_text()?.to_lowercase(),
                &b.as_text()?.to_lowercase(),
            )),
            _ => {
                let sa = a.as_text()?;
                let sb = b.as_text()?;
                Some(self.apply_text(&sa, &sb))
            }
        }
    }

    /// Applies a string-based function to already-extracted text.
    ///
    /// Token-based functions tokenize both sides into a throwaway
    /// interner per call — this is the slow uncached path; bulk scoring
    /// goes through the derivation layer and [`Self::apply_tokens`].
    pub fn apply_text(self, a: &str, b: &str) -> f64 {
        match self {
            SimFunction::JaccardQgm3
            | SimFunction::CosineQgm3
            | SimFunction::JaccardWord
            | SimFunction::CosineWord
            | SimFunction::DiceWord
            | SimFunction::OverlapWord
            | SimFunction::MongeElkan => {
                let mut it = Interner::new();
                let (ta, tb) = if matches!(self, SimFunction::JaccardQgm3 | SimFunction::CosineQgm3)
                {
                    (qgrams(&mut it, a, 3), qgrams(&mut it, b, 3))
                } else {
                    (words(&mut it, a), words(&mut it, b))
                };
                self.apply_tokens(&it, &ta, &tb)
            }
            SimFunction::Levenshtein => levenshtein_sim(a, b),
            SimFunction::JaroWinkler => jaro_winkler(a, b),
            SimFunction::NeedlemanWunsch => needleman_wunsch(a, b),
            SimFunction::SmithWaterman => smith_waterman(a, b),
            SimFunction::ExactMatch => exact_match(&a.to_lowercase(), &b.to_lowercase()),
            SimFunction::AbsDiff | SimFunction::RelDiff => {
                unreachable!("numeric functions have no text path")
            }
        }
    }

    /// Applies a token-based function to pre-computed token bags (both
    /// built against `interner`).
    ///
    /// # Panics
    /// Panics if called on a non-token function.
    pub fn apply_tokens(self, interner: &Interner, a: &TokenBag, b: &TokenBag) -> f64 {
        match self {
            SimFunction::JaccardQgm3 | SimFunction::JaccardWord => jaccard(a, b),
            SimFunction::CosineQgm3 | SimFunction::CosineWord => cosine(a, b),
            SimFunction::DiceWord => dice(a, b),
            SimFunction::OverlapWord => overlap_coefficient(a, b),
            SimFunction::MongeElkan => monge_elkan(interner, a, b),
            _ => panic!("{self:?} is not token-based"),
        }
    }
}

/// The per-type function sets, mirroring Magellan's defaults.
///
/// Quadratic-cost sequence measures (Levenshtein, alignment) are only
/// applied to short/medium strings; long free text gets token-set measures
/// which stay fast and are the only ones that carry signal there anyway.
pub fn functions_for(attr_type: AttrType) -> &'static [SimFunction] {
    use SimFunction::*;
    match attr_type {
        AttrType::Boolean => &[ExactMatch],
        AttrType::Numeric => &[ExactMatch, AbsDiff, RelDiff],
        AttrType::StrShort => &[
            JaccardQgm3,
            CosineQgm3,
            Levenshtein,
            JaroWinkler,
            ExactMatch,
        ],
        AttrType::StrMedium => &[
            JaccardQgm3,
            CosineQgm3,
            JaccardWord,
            MongeElkan,
            Levenshtein,
            NeedlemanWunsch,
        ],
        AttrType::StrLong => &[JaccardQgm3, CosineQgm3, JaccardWord, CosineWord, MongeElkan],
        AttrType::StrHuge => &[JaccardWord, CosineWord, DiceWord, OverlapWord],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_type_has_at_least_one_function() {
        for t in [
            AttrType::Boolean,
            AttrType::Numeric,
            AttrType::StrShort,
            AttrType::StrMedium,
            AttrType::StrLong,
            AttrType::StrHuge,
        ] {
            assert!(!functions_for(t).is_empty());
        }
    }

    #[test]
    fn grouped_structure_multiple_functions_per_string_attr() {
        // The §3.2 feature-grouping premise: string attributes generate
        // several correlated features.
        assert!(functions_for(AttrType::StrMedium).len() >= 2);
    }

    #[test]
    fn apply_handles_nulls() {
        let f = SimFunction::JaccardQgm3;
        assert_eq!(f.apply(&Value::Null, &"x".into()), None);
        assert_eq!(f.apply(&"x".into(), &Value::Null), None);
        assert!(f.apply(&"x".into(), &"x".into()).is_some());
    }

    #[test]
    fn exact_match_is_case_insensitive() {
        let f = SimFunction::ExactMatch;
        assert_eq!(f.apply(&"ACM".into(), &"acm".into()), Some(1.0));
        assert_eq!(f.apply(&"acm".into(), &"vldb".into()), Some(0.0));
    }

    #[test]
    fn numeric_functions_coerce_strings() {
        let f = SimFunction::AbsDiff;
        let a: Value = "10".into();
        let b: Value = "5".into();
        assert_eq!(f.apply(&a, &b), Some(0.5));
        // Non-numeric text cannot be compared numerically.
        assert_eq!(f.apply(&"abc".into(), &"5".into()), None);
    }

    #[test]
    fn identical_values_score_one_for_all_string_functions() {
        let v: Value = "the matrix".into();
        for t in [
            AttrType::StrShort,
            AttrType::StrMedium,
            AttrType::StrLong,
            AttrType::StrHuge,
        ] {
            for f in functions_for(t) {
                let s = f.apply(&v, &v).unwrap();
                assert!((s - 1.0).abs() < 1e-9, "{f:?} gave {s} on identical values");
            }
        }
    }

    #[test]
    fn short_names_are_unique() {
        use std::collections::HashSet;
        let all = [
            SimFunction::JaccardQgm3,
            SimFunction::CosineQgm3,
            SimFunction::JaccardWord,
            SimFunction::CosineWord,
            SimFunction::DiceWord,
            SimFunction::OverlapWord,
            SimFunction::Levenshtein,
            SimFunction::JaroWinkler,
            SimFunction::MongeElkan,
            SimFunction::NeedlemanWunsch,
            SimFunction::SmithWaterman,
            SimFunction::ExactMatch,
            SimFunction::AbsDiff,
            SimFunction::RelDiff,
        ];
        let names: HashSet<_> = all.iter().map(|f| f.short_name()).collect();
        assert_eq!(names.len(), all.len());
    }
}
