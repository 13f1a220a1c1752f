//! Candidate sets.

/// Whether candidates link two distinct tables or deduplicate one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairMode {
    /// Record linkage: pairs `(left index, right index)` across tables.
    Cross,
    /// Deduplication: unordered pairs within one table, stored with
    /// `left < right` and no self-pairs.
    Dedup,
}

/// A set of candidate record pairs produced by blocking.
///
/// Pairs are stored as record *indices* into the source tables (not ids),
/// deduplicated, in deterministic sorted order.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    mode: PairMode,
    pairs: Vec<(usize, usize)>,
}

impl CandidateSet {
    /// Builds a candidate set, normalizing and deduplicating pairs.
    ///
    /// In [`PairMode::Dedup`] pairs are reordered so `left < right` and
    /// self-pairs are dropped.
    pub fn new(mode: PairMode, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut pairs: Vec<_> = pairs
            .into_iter()
            .filter_map(|(a, b)| match mode {
                PairMode::Cross => Some((a, b)),
                PairMode::Dedup => (a != b).then_some((a.min(b), a.max(b))),
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        Self { mode, pairs }
    }

    /// Wraps pairs that are already normalized, unique and sorted — what
    /// the blocking probe emits — as they are.
    pub(crate) fn from_sorted(mode: PairMode, pairs: Vec<(usize, usize)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "pairs must be unique and sorted"
        );
        debug_assert!(
            mode == PairMode::Cross || pairs.iter().all(|&(a, b)| a < b),
            "dedup pairs must be normalized"
        );
        Self { mode, pairs }
    }

    /// The pair mode.
    pub fn mode(&self) -> PairMode {
        self.mode
    }

    /// The candidate pairs (sorted, deduplicated).
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether a specific pair survived blocking (pair must be normalized
    /// for dedup mode; this helper normalizes for you).
    pub fn contains(&self, a: usize, b: usize) -> bool {
        let key = match self.mode {
            PairMode::Cross => (a, b),
            PairMode::Dedup => (a.min(b), a.max(b)),
        };
        self.pairs.binary_search(&key).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_mode_keeps_ordered_pairs() {
        let cs = CandidateSet::new(PairMode::Cross, [(1, 0), (0, 1), (1, 0)]);
        assert_eq!(cs.pairs(), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn dedup_mode_normalizes_and_drops_self_pairs() {
        let cs = CandidateSet::new(PairMode::Dedup, [(2, 1), (1, 2), (3, 3), (0, 5)]);
        assert_eq!(cs.pairs(), &[(0, 5), (1, 2)]);
    }

    #[test]
    fn contains_normalizes_for_dedup() {
        let cs = CandidateSet::new(PairMode::Dedup, [(1, 2)]);
        assert!(cs.contains(2, 1));
        assert!(cs.contains(1, 2));
        assert!(!cs.contains(0, 1));
    }
}
