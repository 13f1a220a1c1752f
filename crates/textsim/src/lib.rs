//! String and numeric similarity measures for entity resolution, plus
//! the shared record-derivation layer.
//!
//! ZeroER consumes similarity feature vectors produced by applying a set of
//! similarity functions to each aligned attribute of a tuple pair (the
//! Magellan feature-generation process of §2.1). This crate implements the
//! measures Magellan's automatic feature generator uses:
//!
//! * token-based: Jaccard, cosine, Dice, overlap coefficient — over q-gram
//!   or word tokens ([`token`], [`tokenize`]);
//! * sequence-based: Levenshtein (plus normalized similarity), Jaro,
//!   Jaro-Winkler, Needleman-Wunsch, Smith-Waterman ([`edit`], [`align`]);
//! * hybrid: Monge-Elkan ([`token::monge_elkan`]);
//! * numeric / categorical: exact match, absolute-difference and
//!   relative-difference similarity ([`numeric`]).
//!
//! Tokens are interned ([`intern`]): a [`tokenize::TokenBag`] stores
//! sorted `(Sym, count)` pairs, so set operations are merge-joins over
//! 4-byte symbols instead of string-hash probes, and each distinct token
//! is stored once per corpus. The [`mod@derive`] module computes every
//! derived form of a record (normalized text, word bag, q-gram bag,
//! numeric form, blocking keys) in a single pass — the one place in the
//! workspace that tokenizes raw attribute text.
//!
//! All similarity functions return values in a documented range (almost
//! always `[0, 1]`, higher = more similar) and treat empty inputs
//! consistently: two empty strings are maximally similar, an empty and a
//! non-empty string are maximally dissimilar.

pub mod align;
pub mod derive;
pub mod edit;
pub mod intern;
pub mod numeric;
pub mod scratch;
pub mod tfidf;
pub mod token;
pub mod tokenize;

pub use align::needleman_wunsch_with;
pub use derive::{AttrDerived, BlockSpec, DeriveConfig, DerivedRecord, Deriver, KeySet};
pub use edit::{
    hamming_sim, jaro, jaro_winkler, jaro_winkler_with, jaro_with, levenshtein, levenshtein_sim,
    levenshtein_sim_with, levenshtein_with, prefix_sim, EditCounts,
};
pub use intern::{fnv1a, Interner, Sym};
pub use numeric::{abs_diff_sim, exact_match, exact_match_lowercase, rel_diff_sim};
pub use scratch::SimScratch;
pub use tfidf::IdfModel;
pub use token::{
    cosine, dice, jaccard, monge_elkan, monge_elkan_fixed_with, monge_elkan_with,
    overlap_coefficient, set_counts_fixed_with, FixedBag, SetCounts,
};
pub use tokenize::{normalize, qgrams, words, TokenBag};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn short_ascii() -> impl Strategy<Value = String> {
        "[a-z0-9 ]{0,12}"
    }

    proptest! {
        #[test]
        fn levenshtein_is_a_metric(a in short_ascii(), b in short_ascii(), c in short_ascii()) {
            let ab = levenshtein(&a, &b);
            let ba = levenshtein(&b, &a);
            prop_assert_eq!(ab, ba, "symmetry");
            prop_assert_eq!(levenshtein(&a, &a), 0, "identity");
            let ac = levenshtein(&a, &c);
            let bc = levenshtein(&b, &c);
            prop_assert!(ac <= ab + bc, "triangle inequality");
        }

        #[test]
        fn similarities_are_in_unit_range(a in short_ascii(), b in short_ascii()) {
            let mut it = Interner::new();
            let ta = qgrams(&mut it, &a, 3);
            let tb = qgrams(&mut it, &b, 3);
            for v in [
                jaccard(&ta, &tb),
                cosine(&ta, &tb),
                dice(&ta, &tb),
                overlap_coefficient(&ta, &tb),
                levenshtein_sim(&a, &b),
                jaro(&a, &b),
                jaro_winkler(&a, &b),
            ] {
                prop_assert!((0.0..=1.0).contains(&v), "out of range: {v}");
            }
        }

        #[test]
        fn similarities_are_symmetric(a in short_ascii(), b in short_ascii()) {
            let mut it = Interner::new();
            let (ta, tb) = (qgrams(&mut it, &a, 3), qgrams(&mut it, &b, 3));
            prop_assert!((jaccard(&ta, &tb) - jaccard(&tb, &ta)).abs() < 1e-12);
            prop_assert!((cosine(&ta, &tb) - cosine(&tb, &ta)).abs() < 1e-12);
            prop_assert!((jaro(&a, &b) - jaro(&b, &a)).abs() < 1e-12);
            prop_assert!((jaro_winkler(&a, &b) - jaro_winkler(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn identical_strings_are_maximally_similar(a in "[a-z0-9]{1,12}") {
            let mut it = Interner::new();
            let t = qgrams(&mut it, &a, 3);
            prop_assert_eq!(jaccard(&t, &t), 1.0);
            prop_assert_eq!(levenshtein_sim(&a, &a), 1.0);
            prop_assert_eq!(jaro(&a, &a), 1.0);
            prop_assert_eq!(jaro_winkler(&a, &a), 1.0);
        }

        #[test]
        fn jaro_winkler_dominates_jaro(a in short_ascii(), b in short_ascii()) {
            prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12,
                "Winkler prefix bonus can only increase Jaro");
        }

        #[test]
        fn scratch_kernels_are_bit_identical(a in short_ascii(), b in short_ascii()) {
            // The `*_with` variants must reproduce the allocating forms
            // exactly — same bits, not within-epsilon — because the
            // batched scoring path swaps them in while the scalar path
            // keeps the allocating forms.
            let mut s = SimScratch::new();
            prop_assert_eq!(levenshtein_with(&mut s, &a, &b), levenshtein(&a, &b));
            prop_assert_eq!(
                levenshtein_sim_with(&mut s, &a, &b).to_bits(),
                levenshtein_sim(&a, &b).to_bits()
            );
            prop_assert_eq!(jaro_with(&mut s, &a, &b).to_bits(), jaro(&a, &b).to_bits());
            prop_assert_eq!(
                jaro_winkler_with(&mut s, &a, &b).to_bits(),
                jaro_winkler(&a, &b).to_bits()
            );
            prop_assert_eq!(
                needleman_wunsch_with(&mut s, &a, &b).to_bits(),
                align::needleman_wunsch(&a, &b).to_bits()
            );
            let mut it = Interner::new();
            let (ta, tb) = (words(&mut it, &a), words(&mut it, &b));
            prop_assert_eq!(
                monge_elkan_with(&mut s, &it, &ta, &tb).to_bits(),
                monge_elkan(&it, &ta, &tb).to_bits()
            );
            // Reuse across calls must not leak state between kernels.
            prop_assert_eq!(
                levenshtein_sim_with(&mut s, &b, &a).to_bits(),
                levenshtein_sim(&b, &a).to_bits()
            );
        }

        #[test]
        fn interned_set_ops_match_naive_string_sets(a in short_ascii(), b in short_ascii()) {
            use std::collections::BTreeSet;
            let mut it = Interner::new();
            let (ta, tb) = (words(&mut it, &a), words(&mut it, &b));
            let sa: BTreeSet<&str> = ta.tokens(&it).collect();
            let sb: BTreeSet<&str> = tb.tokens(&it).collect();
            prop_assert_eq!(ta.set_intersection(&tb), sa.intersection(&sb).count());
            prop_assert_eq!(ta.set_union(&tb), sa.union(&sb).count());
        }
    }
}
