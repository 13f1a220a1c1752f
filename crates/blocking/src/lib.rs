//! Blocking: candidate-set generation.
//!
//! Comparing all `|T| × |T'|` tuple pairs is prohibitively expensive, so
//! ER systems first run *blocking* to retain a candidate set `Cs` that
//! keeps (almost) all true matches while discarding the bulk of obvious
//! non-matches (§2.1). The paper treats blocking as an orthogonal,
//! already-solved step; we still need a real implementation to produce
//! candidate sets with realistic class imbalance for the experiments.
//!
//! Provided blockers:
//!
//! * [`TokenBlocker`] — pairs sharing at least one word token on a key
//!   attribute (with a frequency cap to avoid stop-word blowup);
//! * [`QgramBlocker`] — pairs sharing a character q-gram (more recall,
//!   more candidates);
//! * [`AttrEquivalenceBlocker`] — exact equality on an attribute;
//! * [`SortedNeighborhood`] — classic sliding window over a sort key;
//! * [`CartesianBlocker`] — everything (for small datasets / tests);
//! * [`UnionBlocker`] — union of several blockers' candidates;
//! * [`standard_recipe`] — the recipe the pipelines run: token and
//!   q-gram keys probed together, keeping the pairs whose records share
//!   at least two keys ([`standard_rule`]).

pub mod blockers;
pub mod candidate;
pub mod keys;
pub mod quality;

pub use blockers::{
    pruned_candidates_derived, standard_candidates_derived, standard_recipe, standard_rule,
    AttrEquivalenceBlocker, Blocker, CartesianBlocker, KeyRule, QgramBlocker, SortedNeighborhood,
    TokenBlocker, UnionBlocker,
};
pub use candidate::{CandidateSet, PairMode};
pub use keys::TableKeys;
pub use quality::BlockingReport;
