//! Automatic similarity-feature generation (the Magellan process of §2.1).
//!
//! Given two tables with aligned schemas and a candidate set of record
//! pairs, this crate produces the `N × d` similarity feature matrix that
//! ZeroER and every baseline consume, along with the *feature grouping*
//! structure (which contiguous columns came from which attribute) that
//! drives the block-diagonal covariance of §3.2.
//!
//! The pipeline mirrors Magellan:
//!
//! 1. infer an [`zeroer_tabular::AttrType`] per aligned attribute
//!    (jointly over both tables);
//! 2. look up the per-type similarity-function set in the [`registry`];
//! 3. apply every function to every candidate pair — missing values
//!    produce `NaN`, later mean-imputed per column;
//! 4. min-max normalize each feature to `[0, 1]` (§6).
//!
//! Tokenization happens exactly once per record, through the shared
//! derivation layer (`zeroer_textsim::derive`): the featurizer owns the
//! tables' [`zeroer_textsim::derive::DerivedRecord`]s and the interner
//! they were built against, and the same derivation feeds batch
//! blocking and the streaming subsystem. See `crates/features/README.md`
//! for the design note.
//!
//! Feature generation is embarrassingly parallel over pairs and is chunked
//! across threads with `crossbeam`.

pub mod generator;
pub mod registry;

pub use generator::{BatchFeaturizer, FeatureSet, FillScratch, PairFeaturizer, RowFeaturizer};
pub use registry::{functions_for, SimFunction};
// The derivation layer the featurizers consume, re-exported for
// convenience.
pub use zeroer_textsim::derive::{AttrDerived, BlockSpec, DeriveConfig, DerivedRecord, Deriver};
