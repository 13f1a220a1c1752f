//! Blocking quality metrics: the standard reduction-ratio /
//! pair-completeness report used when designing blocking schemes.
//!
//! The paper treats blocking as a given; a downstream user still needs to
//! verify that whatever blocking they configure (a) discards enough of the
//! quadratic pair space and (b) keeps the true matches. This module
//! computes exactly that trade-off.

use crate::candidate::{CandidateSet, PairMode};

/// Blocking quality summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingReport {
    /// Candidate pairs kept.
    pub candidates: usize,
    /// Size of the unblocked pair space (`|T|·|T'|` or `n·(n−1)/2`).
    pub total_pairs: usize,
    /// Reduction ratio `1 − candidates / total` (higher = cheaper).
    pub reduction_ratio: f64,
    /// Pair completeness = blocking recall (fraction of true matches
    /// kept; higher = safer).
    pub pair_completeness: f64,
    /// True matches kept.
    pub matches_kept: usize,
    /// True matches total.
    pub matches_total: usize,
}

impl BlockingReport {
    /// Evaluates a candidate set against ground-truth matches.
    ///
    /// `left_size`/`right_size` define the unblocked pair space; for
    /// [`PairMode::Dedup`] pass the table size as both.
    pub fn evaluate(
        cs: &CandidateSet,
        truth: &[(usize, usize)],
        left_size: usize,
        right_size: usize,
    ) -> Self {
        let total_pairs = match cs.mode() {
            PairMode::Cross => left_size * right_size,
            PairMode::Dedup => left_size * left_size.saturating_sub(1) / 2,
        };
        let matches_kept = truth.iter().filter(|&&(a, b)| cs.contains(a, b)).count();
        let reduction_ratio = if total_pairs == 0 {
            0.0
        } else {
            1.0 - cs.len() as f64 / total_pairs as f64
        };
        let pair_completeness = if truth.is_empty() {
            1.0
        } else {
            matches_kept as f64 / truth.len() as f64
        };
        Self {
            candidates: cs.len(),
            total_pairs,
            reduction_ratio,
            pair_completeness,
            matches_kept,
            matches_total: truth.len(),
        }
    }

    /// Harmonic mean of reduction ratio and pair completeness — a single
    /// figure of merit for comparing blocking configurations.
    pub fn f_measure(&self) -> f64 {
        let (r, c) = (self.reduction_ratio, self.pair_completeness);
        if r + c == 0.0 {
            0.0
        } else {
            2.0 * r * c / (r + c)
        }
    }
}

impl std::fmt::Display for BlockingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} / {} pairs kept (reduction {:.3}), matches {}/{} (completeness {:.3})",
            self.candidates,
            self.total_pairs,
            self.reduction_ratio,
            self.matches_kept,
            self.matches_total,
            self.pair_completeness
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_on_perfect_blocking() {
        let cs = CandidateSet::new(PairMode::Cross, [(0, 0), (1, 1)]);
        let truth = [(0usize, 0usize), (1, 1)];
        let r = BlockingReport::evaluate(&cs, &truth, 10, 10);
        assert_eq!(r.pair_completeness, 1.0);
        assert_eq!(r.candidates, 2);
        assert!((r.reduction_ratio - 0.98).abs() < 1e-12);
        assert!(r.f_measure() > 0.98);
    }

    #[test]
    fn report_counts_lost_matches() {
        let cs = CandidateSet::new(PairMode::Cross, [(0, 0)]);
        let truth = [(0usize, 0usize), (5, 5)];
        let r = BlockingReport::evaluate(&cs, &truth, 10, 10);
        assert_eq!(r.matches_kept, 1);
        assert_eq!(r.pair_completeness, 0.5);
    }

    #[test]
    fn dedup_pair_space_is_n_choose_2() {
        let cs = CandidateSet::new(PairMode::Dedup, [(0, 1)]);
        let r = BlockingReport::evaluate(&cs, &[], 10, 10);
        assert_eq!(r.total_pairs, 45);
        assert_eq!(r.pair_completeness, 1.0, "no truth = vacuous completeness");
    }

    #[test]
    fn display_is_readable() {
        let cs = CandidateSet::new(PairMode::Cross, [(0, 0)]);
        let text = BlockingReport::evaluate(&cs, &[(0, 0)], 2, 2).to_string();
        assert!(text.contains("1 / 4 pairs"));
    }
}
