//! Blocking: candidate-set generation.
//!
//! Comparing all `|T| × |T'|` tuple pairs is prohibitively expensive, so
//! ER systems first run *blocking* to retain a candidate set `Cs` that
//! keeps (almost) all true matches while discarding the bulk of obvious
//! non-matches (§2.1). The paper treats blocking as an orthogonal,
//! already-solved step; we still need a real implementation to produce
//! candidate sets with realistic class imbalance for the experiments.
//!
//! There is one recipe, [`standard_candidates_derived`]: token and
//! q-gram keys probed together over a record derivation that already
//! carries them, keeping the pairs whose records share at least two
//! keys ([`standard_rule`]; `n` shared tokens as overlap blocking at
//! overlap `n ≥ 2`). [`pruned_candidates_derived`] lists the pairs the
//! rule drops, and [`BlockingReport`] measures a candidate set against
//! ground truth (reduction ratio, pair completeness).

pub mod blockers;
pub mod candidate;
pub mod quality;

pub use blockers::{
    pruned_candidates_derived, standard_candidates_derived, standard_rule, KeyRule,
};
pub use candidate::{CandidateSet, PairMode};
pub use quality::BlockingReport;
