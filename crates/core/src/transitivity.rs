//! Transitivity as a soft constraint on posteriors (§5).
//!
//! Transitivity says: if `(t1,t2)` and `(t1,t3)` are matches then
//! `(t2,t3)` must be a match. ZeroER encodes the probabilistic relaxation
//! `γ12 · γ13 ≤ γ23` (Eq. 16) and, at the end of every E-step, corrects
//! violations by adjusting the *least confident* of the three posteriors
//! (the one closest to 0.5, Eq. 17). Pairs excluded by blocking are
//! treated as `γ = 0`.
//!
//! For efficiency the check only fans out from pairs currently considered
//! likely matches (`γ > 0.5`), exactly as the paper prescribes — the match
//! graph is tiny compared to the candidate set.
//!
//! The candidate graph is stored as compressed (CSR) arrays indexed by
//! node: per-node neighbour lists in pair-row order drive the sweep, and
//! per-node sorted lists of the neighbours at or above each node answer
//! "is `(t2, t3)` a candidate, and in which row?" by binary search.
//! Building them takes counting passes and one sort of the pair keys,
//! which arrive sorted from blocking.

/// Which posterior Eq. 17 overwrites in a violating triangle: its row and
/// new value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Repair {
    /// A pivot edge, `γ12` or `γ13`.
    Pivot(usize, f64),
    /// The implied pair `γ23`.
    Implied(usize, f64),
}

/// Eq. 16/17 on one triangle: pivot edges `e12` and `e13` (row and
/// posterior) sharing node `t1`, and the implied pair `e23` of
/// `(t2, t3)`, `None` when blocking excluded it, which pins `γ23` at 0.
/// Returns `None` when a pivot edge is no longer a likely match (it may
/// have been lowered earlier in the sweep) or Eq. 16 holds, and otherwise
/// the adjustment of the least confident posterior, the one closest to
/// 0.5. Both the within-table and the cross-table sweep call this.
pub(crate) fn repair(
    (p12, g12): (usize, f64),
    (p13, g13): (usize, f64),
    e23: Option<(usize, f64)>,
) -> Option<Repair> {
    if g12 <= 0.5 || g13 <= 0.5 {
        return None;
    }
    let g23 = e23.map_or(0.0, |(_, g)| g);
    if g12 * g13 <= g23 {
        return None;
    }
    let c12 = (g12 - 0.5).abs();
    let c13 = (g13 - 0.5).abs();
    let c23 = (g23 - 0.5).abs();
    Some(if c12 <= c13 && c12 <= c23 {
        Repair::Pivot(p12, (g23 / g13).clamp(0.0, 1.0))
    } else if c13 <= c12 && c13 <= c23 {
        Repair::Pivot(p13, (g23 / g12).clamp(0.0, 1.0))
    } else if let Some((p23, _)) = e23 {
        Repair::Implied(p23, (g12 * g13).clamp(0.0, 1.0))
    } else if c12 <= c13 {
        // γ23 is pinned at 0 by blocking; fall back to the less
        // confident of the two present pairs.
        Repair::Pivot(p12, 0.0)
    } else {
        Repair::Pivot(p13, 0.0)
    })
}

/// Pair-row lookup plus adjacency for one candidate set, as compressed
/// (CSR) arrays indexed by node.
///
/// Node identifiers are the record indices used in the candidate pairs,
/// so the largest one sizes the offset arrays. For deduplication both
/// endpoints come from the same table; for the within-table legs of
/// record linkage, from one side each.
///
/// - The adjacency of node `t` lists `(neighbour, pair row)` for every
///   pair touching `t`, in row order. Sweeps visit nodes in ascending
///   order and neighbours in that order, which fixes which posterior of
///   a violating triangle gets adjusted first.
/// - The upper list of node `a` holds `(b, pair row)` for every distinct
///   pair `{a, b}` with `a ≤ b`, sorted by `b`, so [`Self::pair_row`] is a
///   binary search. A pair listed twice keeps its last row.
#[derive(Debug, Clone)]
pub struct TransitivityCalibrator {
    adjacency_offsets: Vec<usize>,
    adjacency: Vec<(u32, u32)>,
    upper_offsets: Vec<usize>,
    upper: Vec<(u32, u32)>,
}

/// Offsets of a CSR array from per-node counts stored at `counts[t + 1]`.
fn prefix_sums(counts: &mut [usize]) {
    for t in 1..counts.len() {
        counts[t] += counts[t - 1];
    }
}

impl TransitivityCalibrator {
    /// Builds the calibrator from the candidate pair list (row order must
    /// match the feature matrix / posterior vector).
    pub fn new(pairs: &[(usize, usize)]) -> Self {
        let nodes = pairs
            .iter()
            .map(|&(a, b)| a.max(b).saturating_add(1))
            .max()
            .unwrap_or(0);
        assert!(
            nodes.max(pairs.len()) <= u32::MAX as usize,
            "calibrator nodes and rows fit in u32"
        );

        let mut adjacency_offsets = vec![0; nodes + 1];
        for &(a, b) in pairs {
            adjacency_offsets[a + 1] += 1;
            adjacency_offsets[b + 1] += 1;
        }
        prefix_sums(&mut adjacency_offsets);
        let mut next = adjacency_offsets[..nodes].to_vec();
        let mut adjacency = vec![(0, 0); 2 * pairs.len()];
        for (row, &(a, b)) in pairs.iter().enumerate() {
            for (t, other) in [(a, b), (b, a)] {
                adjacency[next[t]] = (other as u32, row as u32);
                next[t] += 1;
            }
        }

        let mut keyed: Vec<(u32, u32, u32)> = pairs
            .iter()
            .enumerate()
            .map(|(row, &(a, b))| (a.min(b) as u32, a.max(b) as u32, row as u32))
            .collect();
        keyed.sort_unstable();
        // Runs of one pair are ascending by row: keep the last row.
        keyed.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 = later.2;
            }
            same
        });
        let mut upper_offsets = vec![0; nodes + 1];
        for &(a, _, _) in &keyed {
            upper_offsets[a as usize + 1] += 1;
        }
        prefix_sums(&mut upper_offsets);
        let upper = keyed.into_iter().map(|(_, b, row)| (b, row)).collect();

        Self {
            adjacency_offsets,
            adjacency,
            upper_offsets,
            upper,
        }
    }

    /// Number of indexed (distinct) pairs.
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// Whether no pairs are indexed.
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }

    /// Row index of pair `(a, b)`, if it survived blocking.
    pub fn pair_row(&self, a: usize, b: usize) -> Option<usize> {
        let (lo, hi) = (a.min(b), a.max(b));
        let range = self.upper_offsets.get(lo..lo + 2)?;
        let hi = u32::try_from(hi).ok()?;
        let list = &self.upper[range[0]..range[1]];
        let at = list.binary_search_by_key(&hi, |&(b, _)| b).ok()?;
        Some(list[at].1 as usize)
    }

    /// The nodes' neighbour lists in sweep order (ascending node).
    fn neighbourhoods(&self) -> impl Iterator<Item = &[(u32, u32)]> {
        self.adjacency_offsets
            .windows(2)
            .map(|w| &self.adjacency[w[0]..w[1]])
    }

    /// One calibration sweep (Eq. 16/17) over the posteriors, in place.
    ///
    /// For every "pivot" node `t1` with at least two likely-match
    /// neighbors, each neighbor pair `(t2, t3)` is checked:
    /// `γ12·γ13 > γ23` (with `γ23 = 0` when `(t2,t3)` was blocked away)
    /// triggers an adjustment of the least confident posterior.
    pub fn calibrate(&self, gammas: &mut [f64]) {
        let mut hot: Vec<(usize, usize)> = Vec::new();
        for neighbors in self.neighbourhoods() {
            // Likely-match incident pairs only (γ > 0.5).
            hot.clear();
            hot.extend(
                neighbors
                    .iter()
                    .map(|&(t, row)| (t as usize, row as usize))
                    .filter(|&(_, row)| gammas[row] > 0.5),
            );
            if hot.len() < 2 {
                continue;
            }
            for i in 0..hot.len() {
                for j in (i + 1)..hot.len() {
                    let (t2, p12) = hot[i];
                    let (t3, p13) = hot[j];
                    let e23 = self.pair_row(t2, t3).map(|r| (r, gammas[r]));
                    if let Some(Repair::Pivot(row, g) | Repair::Implied(row, g)) =
                        repair((p12, gammas[p12]), (p13, gammas[p13]), e23)
                    {
                        gammas[row] = g;
                    }
                }
            }
        }
    }

    /// Counts current violations of Eq. 16 among likely-match triangles —
    /// used by tests and diagnostics.
    pub fn count_violations(&self, gammas: &[f64]) -> usize {
        let mut violations = 0;
        let mut hot: Vec<(usize, usize)> = Vec::new();
        for neighbors in self.neighbourhoods() {
            hot.clear();
            hot.extend(
                neighbors
                    .iter()
                    .map(|&(t, row)| (t as usize, row as usize))
                    .filter(|&(_, row)| gammas[row] > 0.5),
            );
            for i in 0..hot.len() {
                for j in (i + 1)..hot.len() {
                    let (t2, p12) = hot[i];
                    let (t3, p13) = hot[j];
                    let g23 = self.pair_row(t2, t3).map_or(0.0, |r| gammas[r]);
                    if gammas[p12] * gammas[p13] > g23 + 1e-12 {
                        violations += 1;
                    }
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle on nodes {0,1,2}: rows 0=(0,1), 1=(0,2), 2=(1,2).
    fn triangle() -> TransitivityCalibrator {
        TransitivityCalibrator::new(&[(0, 1), (0, 2), (1, 2)])
    }

    #[test]
    fn satisfied_triangle_is_untouched() {
        let cal = triangle();
        let mut g = vec![0.9, 0.9, 0.95];
        let before = g.clone();
        cal.calibrate(&mut g);
        assert_eq!(g, before);
        assert_eq!(cal.count_violations(&g), 0);
    }

    #[test]
    fn violating_triangle_adjusts_least_confident() {
        let cal = triangle();
        // γ12·γ13 = 0.81 > γ23 = 0.6; γ23 (0.6) is closest to 0.5 → set to product.
        let mut g = vec![0.9, 0.9, 0.6];
        cal.calibrate(&mut g);
        assert!(
            (g[2] - 0.81).abs() < 1e-12,
            "γ23 should be raised to the product"
        );
        assert_eq!(cal.count_violations(&g), 0);
    }

    #[test]
    fn least_confident_incident_pair_is_lowered() {
        let cal = triangle();
        // γ12 = 0.6 is least confident; γ23 = 0.1: adjust γ12 = γ23/γ13.
        let mut g = vec![0.6, 0.95, 0.1];
        cal.calibrate(&mut g);
        assert!((g[0] - 0.1 / 0.95).abs() < 1e-9);
        assert_eq!(cal.count_violations(&g), 0);
    }

    #[test]
    fn missing_third_pair_counts_as_zero() {
        // Only (0,1) and (0,2) survive blocking.
        let cal = TransitivityCalibrator::new(&[(0, 1), (0, 2)]);
        let mut g = vec![0.7, 0.9];
        cal.calibrate(&mut g);
        // γ23 = 0 → the less confident of the two (γ12 = 0.7) is zeroed.
        assert_eq!(g[0], 0.0);
        assert_eq!(g[1], 0.9);
    }

    #[test]
    fn cold_pairs_do_not_trigger_checks() {
        let cal = triangle();
        let mut g = vec![0.4, 0.45, 0.0];
        let before = g.clone();
        cal.calibrate(&mut g);
        assert_eq!(g, before, "pairs with γ ≤ 0.5 are not pivoted on");
    }

    #[test]
    fn gammas_remain_probabilities_after_calibration() {
        let cal = TransitivityCalibrator::new(&[(0, 1), (0, 2), (1, 2), (2, 3), (0, 3)]);
        let mut g = vec![0.99, 0.98, 0.51, 0.97, 0.52];
        cal.calibrate(&mut g);
        assert!(g.iter().all(|v| (0.0..=1.0).contains(v)), "{g:?}");
    }

    #[test]
    fn pair_row_normalizes_order() {
        let cal = triangle();
        assert_eq!(cal.pair_row(2, 1), Some(2));
        assert_eq!(cal.pair_row(1, 2), Some(2));
        assert_eq!(cal.pair_row(0, 9), None);
    }

    #[test]
    fn empty_candidate_set_is_noop() {
        let cal = TransitivityCalibrator::new(&[]);
        let mut g: Vec<f64> = vec![];
        cal.calibrate(&mut g);
        assert!(cal.is_empty());
    }
}

/// The CSR calibrator against the `HashMap`/`BTreeMap` one it replaced,
/// on pair lists with duplicates, self-pairs and unsorted order, and
/// posteriors near 0.5 so sweeps adjust many triangles.
#[cfg(test)]
mod calibrator_parity {
    use super::*;
    use proptest::prelude::*;

    /// The earlier calibrator, verbatim.
    mod reference {
        use std::collections::{BTreeMap, HashMap};

        pub struct TransitivityCalibrator {
            pair_index: HashMap<(usize, usize), usize>,
            adjacency: BTreeMap<usize, Vec<(usize, usize)>>,
        }

        impl TransitivityCalibrator {
            pub fn new(pairs: &[(usize, usize)]) -> Self {
                let mut pair_index = HashMap::with_capacity(pairs.len());
                let mut adjacency: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
                for (row, &(a, b)) in pairs.iter().enumerate() {
                    let key = (a.min(b), a.max(b));
                    pair_index.insert(key, row);
                    adjacency.entry(a).or_default().push((b, row));
                    adjacency.entry(b).or_default().push((a, row));
                }
                Self {
                    pair_index,
                    adjacency,
                }
            }

            pub fn len(&self) -> usize {
                self.pair_index.len()
            }

            pub fn pair_row(&self, a: usize, b: usize) -> Option<usize> {
                self.pair_index.get(&(a.min(b), a.max(b))).copied()
            }

            pub fn calibrate(&self, gammas: &mut [f64]) {
                for (&_t1, neighbors) in &self.adjacency {
                    let hot: Vec<(usize, usize)> = neighbors
                        .iter()
                        .copied()
                        .filter(|&(_, row)| gammas[row] > 0.5)
                        .collect();
                    if hot.len() < 2 {
                        continue;
                    }
                    for i in 0..hot.len() {
                        for j in (i + 1)..hot.len() {
                            let (t2, p12) = hot[i];
                            let (t3, p13) = hot[j];
                            let g12 = gammas[p12];
                            let g13 = gammas[p13];
                            if g12 <= 0.5 || g13 <= 0.5 {
                                continue;
                            }
                            let p23 = self.pair_row(t2, t3);
                            let g23 = p23.map_or(0.0, |r| gammas[r]);
                            if g12 * g13 <= g23 {
                                continue;
                            }
                            let c12 = (g12 - 0.5).abs();
                            let c13 = (g13 - 0.5).abs();
                            let c23 = (g23 - 0.5).abs();
                            if c12 <= c13 && c12 <= c23 {
                                gammas[p12] = if g13 > 0.0 {
                                    (g23 / g13).clamp(0.0, 1.0)
                                } else {
                                    0.0
                                };
                            } else if c13 <= c12 && c13 <= c23 {
                                gammas[p13] = if g12 > 0.0 {
                                    (g23 / g12).clamp(0.0, 1.0)
                                } else {
                                    0.0
                                };
                            } else if let Some(r23) = p23 {
                                gammas[r23] = (g12 * g13).clamp(0.0, 1.0);
                            } else if c12 <= c13 {
                                gammas[p12] = 0.0;
                            } else {
                                gammas[p13] = 0.0;
                            }
                        }
                    }
                }
            }

            pub fn count_violations(&self, gammas: &[f64]) -> usize {
                let mut violations = 0;
                for neighbors in self.adjacency.values() {
                    let hot: Vec<(usize, usize)> = neighbors
                        .iter()
                        .copied()
                        .filter(|&(_, row)| gammas[row] > 0.5)
                        .collect();
                    for i in 0..hot.len() {
                        for j in (i + 1)..hot.len() {
                            let (t2, p12) = hot[i];
                            let (t3, p13) = hot[j];
                            let g23 = self.pair_row(t2, t3).map_or(0.0, |r| gammas[r]);
                            if gammas[p12] * gammas[p13] > g23 + 1e-12 {
                                violations += 1;
                            }
                        }
                    }
                }
                violations
            }
        }
    }

    /// Posteriors cluster around the 0.5 decision boundary, with a few
    /// confident and exact 0/1 values.
    const NEAR_HALF: [f64; 12] = [
        0.0, 0.2, 0.45, 0.5, 0.501, 0.51, 0.55, 0.6, 0.75, 0.9, 0.99, 1.0,
    ];

    /// Up to 60 pairs over up to 12 nodes: duplicates (in both
    /// orientations), self-pairs and unsorted order all occur.
    fn pair_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (1usize..13).prop_flat_map(|nodes| {
            (0usize..61).prop_flat_map(move |len| {
                proptest::collection::vec(0..nodes, 2 * len).prop_map(move |ends| {
                    let pairs = ends.chunks(2).map(|c| (c[0], c[1])).collect();
                    (nodes, pairs)
                })
            })
        })
    }

    fn bits(g: &[f64]) -> Vec<u64> {
        g.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_same(pairs: &[(usize, usize)], nodes: usize, gammas: &[f64]) {
        let (csr, want) = (
            TransitivityCalibrator::new(pairs),
            reference::TransitivityCalibrator::new(pairs),
        );
        assert_eq!(csr.len(), want.len(), "len of {pairs:?}");
        assert_eq!(csr.is_empty(), want.len() == 0);
        for a in 0..nodes + 2 {
            for b in 0..nodes + 2 {
                assert_eq!(
                    csr.pair_row(a, b),
                    want.pair_row(a, b),
                    "({a}, {b}) of {pairs:?}"
                );
            }
        }
        let (mut g, mut h) = (gammas.to_vec(), gammas.to_vec());
        for sweep in 0..4 {
            assert_eq!(
                csr.count_violations(&g),
                want.count_violations(&h),
                "violations before sweep {sweep} of {pairs:?}"
            );
            csr.calibrate(&mut g);
            want.calibrate(&mut h);
            assert_eq!(bits(&g), bits(&h), "sweep {sweep} of {pairs:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn csr_calibrator_matches_hash_maps(
            graph in pair_list(),
            picks in proptest::collection::vec(0usize..NEAR_HALF.len(), 60),
            jitter in proptest::collection::vec(-1e-3f64..1e-3, 60),
        ) {
            let (nodes, pairs) = graph;
            let gammas: Vec<f64> = (0..pairs.len())
                .map(|i| (NEAR_HALF[picks[i]] + jitter[i]).clamp(0.0, 1.0))
                .collect();
            assert_same(&pairs, nodes, &gammas);
        }
    }

    #[test]
    fn dense_graph_with_every_duplicate_and_self_pair() {
        let mut pairs = Vec::new();
        for a in 0..6 {
            for b in 0..6 {
                pairs.push((a, b));
            }
        }
        pairs.reverse();
        let gammas: Vec<f64> = (0..pairs.len())
            .map(|i| NEAR_HALF[(i * 7) % NEAR_HALF.len()])
            .collect();
        assert_same(&pairs, 6, &gammas);
        assert_same(&[], 0, &[]);
    }
}
