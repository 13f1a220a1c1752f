//! Reusable scratch buffers for the allocation-heavy sequence kernels.
//!
//! The DP measures (Levenshtein, Jaro-Winkler, Needleman-Wunsch) and the
//! hybrid Monge-Elkan each allocate several short-lived `Vec`s per call
//! — char buffers, DP rows, match flags. On the bulk featurizer and the
//! batched scoring hot path those calls happen thousands of times per
//! fill, and the allocator traffic dominates the actual DP work for typical
//! attribute-length strings. [`SimScratch`] owns one set of buffers that
//! the `*_with` kernel variants reuse across calls; after the first few
//! calls the buffers have seen their maximum sizes and the kernels stop
//! allocating entirely.
//!
//! The `*_with` variants execute the **exact same operation sequence**
//! as their allocating counterparts (which delegate to them with a fresh
//! scratch), so results are bit-identical by construction — the property
//! the streaming subsystem's batched-vs-scalar parity suite locks in.

use crate::intern::Sym;

/// Scratch buffers shared by the `*_with` sequence-similarity kernels.
///
/// One instance per worker/batch is enough; the kernels fully reset the
/// buffers they use, so a scratch can be freely reused across different
/// measures and string lengths.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    /// Left-side chars (Unicode scalar values).
    pub(crate) a_chars: Vec<char>,
    /// Right-side chars.
    pub(crate) b_chars: Vec<char>,
    /// Integer DP row (Levenshtein `prev`).
    pub(crate) row_a: Vec<usize>,
    /// Integer DP row (Levenshtein `curr`).
    pub(crate) row_b: Vec<usize>,
    /// Float DP row (alignment `prev`).
    pub(crate) frow_a: Vec<f64>,
    /// Float DP row (alignment `curr`).
    pub(crate) frow_b: Vec<f64>,
    /// Jaro per-position match flags for the left side.
    pub(crate) a_used: Vec<bool>,
    /// Jaro per-position match flags for the right side.
    pub(crate) b_used: Vec<bool>,
    /// Monge-Elkan outer token symbols.
    pub(crate) syms: Vec<Sym>,
}

impl SimScratch {
    /// A fresh, empty scratch (no buffers allocated yet).
    pub fn new() -> Self {
        Self::default()
    }
}
