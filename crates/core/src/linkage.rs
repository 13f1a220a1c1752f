//! Record linkage with cross-table transitivity: the three-model joint
//! trainer of §5.
//!
//! When `T ≠ T'`, transitivity couples *three* generative models: `F` over
//! cross-table pairs, `Fl` over within-`T` pairs, and `Fr` over
//! within-`T'` pairs. If `(t1, t2)` and `(t1, t3)` are cross matches
//! sharing the left tuple `t1`, then `(t2, t3)` — a within-`T'` pair — must
//! match, so `F`'s E-step calibration reads and can modify `Fr`'s
//! posteriors (and symmetrically `Fl`'s). The paper trains the models
//! jointly, each iteration running
//! `F.E(), F.M(), Fl.M(), Fl.E(), Fr.M(), Fr.E()` so the within-table
//! M-steps pick up the posterior edits made by `F`'s E-step.

use crate::config::ZeroErConfig;
use crate::model::{FitSummary, GenerativeModel};
use crate::transitivity::{repair, Repair, TransitivityCalibrator};
use std::collections::BTreeMap;
use zeroer_linalg::block::GroupLayout;
use zeroer_linalg::Matrix;

/// One leg of a linkage task: a feature matrix with its pair endpoints and
/// grouping layout.
#[derive(Debug, Clone)]
pub struct LinkageTask {
    /// `N × d` feature matrix for this leg's candidate pairs.
    pub features: Matrix,
    /// Pair endpoints, aligned with the matrix rows. For the cross leg:
    /// `(left index, right index)`. For within-table legs: `(i, j)` within
    /// that table.
    pub pairs: Vec<(usize, usize)>,
    /// Feature grouping.
    pub layout: GroupLayout,
}

impl LinkageTask {
    /// Builds a leg, checking row/pair alignment.
    ///
    /// # Panics
    /// Panics if `features.rows() != pairs.len()`.
    pub fn new(features: Matrix, pairs: Vec<(usize, usize)>, layout: GroupLayout) -> Self {
        assert_eq!(
            features.rows(),
            pairs.len(),
            "one pair per feature row required"
        );
        Self {
            features,
            pairs,
            layout,
        }
    }
}

/// The three fitted generative models a linkage fit produces, returned
/// by [`LinkageModel::fit_models`] so callers can freeze them into a
/// [`crate::snapshot::LinkageSnapshot`] for online (streaming) scoring.
///
/// `left`/`right` are `None` when the corresponding within-table leg had
/// no candidate pairs (the trainer skips fitting a model over nothing).
pub struct FittedLinkage {
    /// The cross-table model `F`, fitted.
    pub cross: GenerativeModel,
    /// The within-left model `Fl`, if the left leg had pairs.
    pub left: Option<GenerativeModel>,
    /// The within-right model `Fr`, if the right leg had pairs.
    pub right: Option<GenerativeModel>,
}

/// Result of a [`LinkageModel::fit`].
#[derive(Debug, Clone)]
pub struct LinkageOutcome {
    /// Posterior match probabilities for the cross pairs.
    pub cross_gammas: Vec<f64>,
    /// Hard labels for the cross pairs (Eq. 5).
    pub cross_labels: Vec<bool>,
    /// Posteriors of the within-left model (empty if no left pairs).
    pub left_gammas: Vec<f64>,
    /// Posteriors of the within-right model (empty if no right pairs).
    pub right_gammas: Vec<f64>,
    /// EM summary of the cross model `F`.
    pub summary: FitSummary,
}

/// One within-table leg as the cross sweep sees it: the leg's calibrator,
/// which looks up implied pairs, and its posteriors. `None` when the leg
/// has no pairs, so every implied pair reads `γ23 = 0`.
type WithinLeg<'a> = Option<(&'a TransitivityCalibrator, &'a mut [f64])>;

/// Indexes the triangles linking cross pairs to within-table pairs.
struct CrossCalibrator {
    /// left node → (right node, cross row). Ordered for deterministic
    /// calibration sweeps.
    by_left: BTreeMap<usize, Vec<(usize, usize)>>,
    /// right node → (left node, cross row).
    by_right: BTreeMap<usize, Vec<(usize, usize)>>,
}

impl CrossCalibrator {
    fn new(cross: &[(usize, usize)]) -> Self {
        let mut by_left: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        let mut by_right: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (row, &(l, r)) in cross.iter().enumerate() {
            by_left.entry(l).or_default().push((r, row));
            by_right.entry(r).or_default().push((l, row));
        }
        Self { by_left, by_right }
    }

    /// Calibrates one "fan" direction: triangles formed by two hot cross
    /// pairs sharing a pivot node plus the implied pair in `within`'s
    /// table.
    fn calibrate_side(
        fan: &BTreeMap<usize, Vec<(usize, usize)>>,
        cross_g: &mut [f64],
        mut within: WithinLeg<'_>,
    ) {
        for neighbors in fan.values() {
            let hot: Vec<(usize, usize)> = neighbors
                .iter()
                .copied()
                .filter(|&(_, row)| cross_g[row] > 0.5)
                .collect();
            if hot.len() < 2 {
                continue;
            }
            for i in 0..hot.len() {
                for j in (i + 1)..hot.len() {
                    let (n2, p12) = hot[i];
                    let (n3, p13) = hot[j];
                    let e23 = within
                        .as_ref()
                        .and_then(|(cal, g)| cal.pair_row(n2, n3).map(|r| (r, g[r])));
                    match repair((p12, cross_g[p12]), (p13, cross_g[p13]), e23) {
                        Some(Repair::Pivot(row, g)) => cross_g[row] = g,
                        Some(Repair::Implied(row, g)) => {
                            if let Some((_, within_g)) = &mut within {
                                within_g[row] = g;
                            }
                        }
                        None => {}
                    }
                }
            }
        }
    }

    fn calibrate(&self, cross_g: &mut [f64], left: WithinLeg<'_>, right: WithinLeg<'_>) {
        // Pivot on left nodes: implied pairs live in the right table.
        Self::calibrate_side(&self.by_left, cross_g, right);
        // Pivot on right nodes: implied pairs live in the left table.
        Self::calibrate_side(&self.by_right, cross_g, left);
    }
}

/// The three-model record-linkage trainer.
pub struct LinkageModel {
    config: ZeroErConfig,
}

impl LinkageModel {
    /// Creates the trainer.
    pub fn new(config: ZeroErConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Jointly fits `F`, `Fl`, `Fr` with the paper's interleaving and
    /// returns the cross-pair posteriors/labels.
    ///
    /// `left`/`right` may have zero pairs (e.g. blocking found no
    /// within-table candidates); the corresponding model is skipped and
    /// implied within-table pairs are treated as `γ = 0`.
    pub fn fit(
        &self,
        cross: &LinkageTask,
        left: &LinkageTask,
        right: &LinkageTask,
    ) -> LinkageOutcome {
        self.fit_models(cross, left, right).0
    }

    /// [`LinkageModel::fit`] that additionally hands back the three
    /// fitted models, so callers can capture their parameters (e.g. into
    /// a [`crate::snapshot::LinkageSnapshot`]) for frozen-model scoring.
    pub fn fit_models(
        &self,
        cross: &LinkageTask,
        left: &LinkageTask,
        right: &LinkageTask,
    ) -> (LinkageOutcome, FittedLinkage) {
        let mut f = GenerativeModel::new(self.config.clone(), cross.layout.clone());
        f.initialize(&cross.features);

        let mut fl = (!left.pairs.is_empty()).then(|| {
            let mut m = GenerativeModel::new(self.config.clone(), left.layout.clone());
            m.initialize(&left.features);
            m
        });
        let mut fr = (!right.pairs.is_empty()).then(|| {
            let mut m = GenerativeModel::new(self.config.clone(), right.layout.clone());
            m.initialize(&right.features);
            m
        });

        let calibrator = self
            .config
            .transitivity
            .then(|| CrossCalibrator::new(&cross.pairs));
        let within_left_cal = (self.config.transitivity && fl.is_some())
            .then(|| TransitivityCalibrator::new(&left.pairs));
        let within_right_cal = (self.config.transitivity && fr.is_some())
            .then(|| TransitivityCalibrator::new(&right.pairs));

        let n = cross.features.rows().max(1) as f64;
        let mut ll_history: Vec<f64> = Vec::new();
        let mut converged = false;
        // F's posteriors of the last `averaging_window` iterations before
        // the cap, for §6's averaging fallback.
        let first_kept = self
            .config
            .max_iterations
            .saturating_sub(self.config.averaging_window);
        let mut recent: Vec<Vec<f64>> = Vec::new();
        let mut iterations = 0;

        // Prime F so its first E-step has parameters.
        f.m_step(&cross.features);

        for iter in 0..self.config.max_iterations {
            iterations = iter + 1;
            // F.E() + cross calibration (may edit Fl/Fr posteriors).
            let ll = f.e_step(&cross.features);
            if let Some(cal) = &calibrator {
                let left = within_left_cal
                    .as_ref()
                    .zip(fl.as_mut().map(|m| m.gammas_mut()));
                let right = within_right_cal
                    .as_ref()
                    .zip(fr.as_mut().map(|m| m.gammas_mut()));
                cal.calibrate(f.gammas_mut(), left, right);
            }
            // F.M().
            f.m_step(&cross.features);
            // Fl.M(); Fl.E() — M first to absorb F's posterior edits.
            if let Some(m) = fl.as_mut() {
                m.m_step(&left.features);
                m.e_step(&left.features);
                if let Some(cal) = &within_left_cal {
                    cal.calibrate(m.gammas_mut());
                }
            }
            // Fr.M(); Fr.E().
            if let Some(m) = fr.as_mut() {
                m.m_step(&right.features);
                m.e_step(&right.features);
                if let Some(cal) = &within_right_cal {
                    cal.calibrate(m.gammas_mut());
                }
            }

            ll_history.push(ll);
            if iter >= first_kept {
                recent.push(f.gammas().to_vec());
            }
            if iter > 0 {
                let prev = ll_history[iter - 1];
                if ((ll - prev).abs() / n) < self.config.tolerance {
                    converged = true;
                    break;
                }
            }
        }

        let mut cross_gammas = f.gammas().to_vec();
        if !converged && recent.len() > 1 {
            let k = recent.len() as f64;
            for (i, g) in cross_gammas.iter_mut().enumerate() {
                *g = recent.iter().map(|v| v[i]).sum::<f64>() / k;
            }
        }
        let cross_labels = cross_gammas.iter().map(|&g| g > 0.5).collect();

        let outcome = LinkageOutcome {
            cross_gammas,
            cross_labels,
            left_gammas: fl.as_ref().map(|m| m.gammas().to_vec()).unwrap_or_default(),
            right_gammas: fr.as_ref().map(|m| m.gammas().to_vec()).unwrap_or_default(),
            summary: FitSummary {
                iterations,
                converged,
                ll_history,
            },
        };
        (
            outcome,
            FittedLinkage {
                cross: f,
                left: fl,
                right: fr,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a toy linkage problem: `n_ent` entities, each present in both
    /// tables; cross pairs = Cartesian over a small block; match features
    /// high, unmatch low.
    fn toy_linkage(seed: u64) -> (LinkageTask, LinkageTask, LinkageTask, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_ent = 12;
        let d = 2;
        let layout = GroupLayout::from_sizes(&[2]);
        let mut pairs = Vec::new();
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for l in 0..n_ent {
            for r in 0..n_ent {
                let is_match = l == r;
                pairs.push((l, r));
                truth.push(is_match);
                let base: f64 = if is_match { 0.9 } else { 0.12 };
                for _ in 0..d {
                    rows.push((base + rng.gen_range(-0.07..0.07f64)).clamp(0.0, 1.0));
                }
            }
        }
        let cross = LinkageTask::new(
            Matrix::from_vec(pairs.len(), d, rows),
            pairs,
            layout.clone(),
        );
        // Within-table legs: a few unmatched pairs each (no duplicates
        // inside either table).
        let mk_within = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let pairs: Vec<(usize, usize)> = (0..n_ent - 1).map(|i| (i, i + 1)).collect();
            let mut rows = Vec::new();
            for _ in &pairs {
                for _ in 0..d {
                    rows.push(rng.gen_range(0.05..0.2));
                }
            }
            LinkageTask::new(
                Matrix::from_vec(pairs.len(), d, rows),
                pairs,
                layout.clone(),
            )
        };
        (cross, mk_within(seed + 1), mk_within(seed + 2), truth)
    }

    #[test]
    fn linkage_recovers_diagonal_matches() {
        let (cross, left, right, truth) = toy_linkage(3);
        let out = LinkageModel::new(ZeroErConfig::default()).fit(&cross, &left, &right);
        assert_eq!(out.cross_labels, truth);
        assert!(out.summary.iterations >= 1);
    }

    #[test]
    fn linkage_without_transitivity_also_works_on_easy_data() {
        let (cross, left, right, truth) = toy_linkage(4);
        let cfg = ZeroErConfig {
            transitivity: false,
            ..Default::default()
        };
        let out = LinkageModel::new(cfg).fit(&cross, &left, &right);
        assert_eq!(out.cross_labels, truth);
    }

    #[test]
    fn empty_within_legs_are_tolerated() {
        let (cross, _, _, truth) = toy_linkage(5);
        let layout = GroupLayout::from_sizes(&[2]);
        let empty = LinkageTask::new(Matrix::zeros(0, 2), vec![], layout.clone());
        let empty2 = LinkageTask::new(Matrix::zeros(0, 2), vec![], layout);
        let out = LinkageModel::new(ZeroErConfig::default()).fit(&cross, &empty, &empty2);
        assert_eq!(out.cross_labels, truth);
        assert!(out.left_gammas.is_empty());
        assert!(out.right_gammas.is_empty());
    }

    #[test]
    fn transitivity_suppresses_one_to_many_conflicts() {
        // Left tuple 0 strongly matches right 0 and weakly "matches"
        // right 1, but right pair (0,1) is a known non-match: the
        // calibration must suppress the weaker cross pair.
        let layout = GroupLayout::from_sizes(&[1]);
        let cross_pairs = vec![
            (0usize, 0usize),
            (0, 1),
            (5, 5),
            (6, 6),
            (7, 8),
            (9, 9),
            (2, 3),
            (3, 2),
        ];
        // Features: strong match, borderline, strong, strong, low, strong, low, low.
        let cross_x = Matrix::from_rows(&[
            &[0.95],
            &[0.62],
            &[0.93],
            &[0.94],
            &[0.08],
            &[0.92],
            &[0.10],
            &[0.12],
        ]);
        let cross = LinkageTask::new(cross_x, cross_pairs, layout.clone());
        // Right pair (0,1) exists with very low similarity.
        let right = LinkageTask::new(
            Matrix::from_rows(&[&[0.05], &[0.1], &[0.07], &[0.09]]),
            vec![(0, 1), (2, 3), (4, 5), (6, 7)],
            layout.clone(),
        );
        let left = LinkageTask::new(Matrix::zeros(0, 1), vec![], layout);
        let out = LinkageModel::new(ZeroErConfig::default()).fit(&cross, &left, &right);
        assert!(out.cross_labels[0], "strong pair must survive");
        assert!(
            !out.cross_labels[1],
            "conflicting weak pair must be suppressed by transitivity (γ = {})",
            out.cross_gammas[1]
        );
    }

    /// The joint loop as it was, with every iteration's cross
    /// posteriors entering a ring buffer of `averaging_window` vectors.
    fn reference_fit(
        config: &ZeroErConfig,
        cross: &LinkageTask,
        left: &LinkageTask,
        right: &LinkageTask,
    ) -> (Vec<f64>, bool, Vec<f64>) {
        let model = |task: &LinkageTask| {
            let mut m = GenerativeModel::new(config.clone(), task.layout.clone());
            m.initialize(&task.features);
            m
        };
        let (mut f, mut fl, mut fr) = (model(cross), model(left), model(right));
        let calibrator = CrossCalibrator::new(&cross.pairs);
        let (left_cal, right_cal) = (
            TransitivityCalibrator::new(&left.pairs),
            TransitivityCalibrator::new(&right.pairs),
        );
        let n = cross.features.rows().max(1) as f64;
        let (mut recent, mut ll_history): (Vec<Vec<f64>>, Vec<f64>) = (Vec::new(), Vec::new());
        let mut converged = false;
        f.m_step(&cross.features);
        for iter in 0..config.max_iterations {
            let ll = f.e_step(&cross.features);
            calibrator.calibrate(
                f.gammas_mut(),
                Some((&left_cal, fl.gammas_mut())),
                Some((&right_cal, fr.gammas_mut())),
            );
            f.m_step(&cross.features);
            for (m, task, cal) in [(&mut fl, left, &left_cal), (&mut fr, right, &right_cal)] {
                m.m_step(&task.features);
                m.e_step(&task.features);
                cal.calibrate(m.gammas_mut());
            }
            ll_history.push(ll);
            if recent.len() == config.averaging_window {
                recent.remove(0);
            }
            recent.push(f.gammas().to_vec());
            if iter > 0 && ((ll - ll_history[iter - 1]).abs() / n) < config.tolerance {
                converged = true;
                break;
            }
        }
        let mut gammas = f.gammas().to_vec();
        if !converged && recent.len() > 1 {
            let k = recent.len() as f64;
            for (i, g) in gammas.iter_mut().enumerate() {
                *g = recent.iter().map(|v| v[i]).sum::<f64>() / k;
            }
        }
        (gammas, converged, ll_history)
    }

    /// Joint fits stopped by the cap average the same window of cross
    /// posteriors as the ring-buffer loop, to the bit.
    #[test]
    fn capped_joint_fits_average_the_same_window() {
        // Overlapping classes keep EM moving, so no iteration repeats
        // the previous log-likelihood exactly.
        let (mut cross, left, right, truth) = toy_linkage(6);
        let mut rng = StdRng::seed_from_u64(60);
        for (i, &m) in truth.iter().enumerate() {
            let centre = if m { 0.6 } else { 0.4 };
            for v in cross.features.row_mut(i) {
                *v = (centre + rng.gen_range(-0.35..0.35f64)).clamp(0.0, 1.0);
            }
        }
        for (max_iterations, averaging_window) in [(4, 20), (20, 20), (25, 20), (7, 2)] {
            let config = ZeroErConfig {
                max_iterations,
                averaging_window,
                tolerance: f64::MIN_POSITIVE,
                ..Default::default()
            };
            let out = LinkageModel::new(config.clone()).fit(&cross, &left, &right);
            let (gammas, converged, ll_history) = reference_fit(&config, &cross, &left, &right);
            let case = format!("cap {max_iterations}, window {averaging_window}");
            assert!(!out.summary.converged && !converged, "{case} converged");
            assert_eq!(out.summary.iterations, max_iterations, "{case}");
            let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out.summary.ll_history), bits(&ll_history), "{case}");
            assert_eq!(bits(&out.cross_gammas), bits(&gammas), "{case}");
        }
    }

    #[test]
    #[should_panic(expected = "one pair per feature row")]
    fn misaligned_task_panics() {
        LinkageTask::new(
            Matrix::zeros(2, 1),
            vec![(0, 0)],
            GroupLayout::from_sizes(&[1]),
        );
    }
}

/// The cross calibrator against the one it replaced, which indexed the
/// within-table pairs in two `HashMap`s of its own and spelled out
/// Eq. 17 a second time: cross pairs with duplicates, within legs with
/// duplicates, self-pairs and both orientations or no pairs at all, and
/// posteriors near 0.5 so sweeps adjust many triangles.
#[cfg(test)]
mod cross_calibrator_parity {
    use super::*;
    use proptest::prelude::*;

    /// The earlier cross calibrator, verbatim.
    mod reference {
        use std::collections::{BTreeMap, HashMap};

        pub struct CrossCalibrator {
            /// left node → (right node, cross row). Ordered for deterministic
            /// calibration sweeps.
            by_left: BTreeMap<usize, Vec<(usize, usize)>>,
            /// right node → (left node, cross row).
            by_right: BTreeMap<usize, Vec<(usize, usize)>>,
            /// within-left pair → row in `Fl`.
            left_index: HashMap<(usize, usize), usize>,
            /// within-right pair → row in `Fr`.
            right_index: HashMap<(usize, usize), usize>,
        }

        impl CrossCalibrator {
            pub fn new(
                cross: &[(usize, usize)],
                left: &[(usize, usize)],
                right: &[(usize, usize)],
            ) -> Self {
                let mut by_left: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
                let mut by_right: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
                for (row, &(l, r)) in cross.iter().enumerate() {
                    by_left.entry(l).or_default().push((r, row));
                    by_right.entry(r).or_default().push((l, row));
                }
                let norm = |(a, b): (usize, usize)| (a.min(b), a.max(b));
                Self {
                    by_left,
                    by_right,
                    left_index: left
                        .iter()
                        .enumerate()
                        .map(|(i, &p)| (norm(p), i))
                        .collect(),
                    right_index: right
                        .iter()
                        .enumerate()
                        .map(|(i, &p)| (norm(p), i))
                        .collect(),
                }
            }

            /// Calibrates one "fan" direction: triangles formed by two hot cross
            /// pairs sharing a pivot node plus the implied within-table pair.
            fn calibrate_side(
                fan: &BTreeMap<usize, Vec<(usize, usize)>>,
                within_index: &HashMap<(usize, usize), usize>,
                cross_g: &mut [f64],
                within_g: &mut [f64],
            ) {
                for neighbors in fan.values() {
                    let hot: Vec<(usize, usize)> = neighbors
                        .iter()
                        .copied()
                        .filter(|&(_, row)| cross_g[row] > 0.5)
                        .collect();
                    if hot.len() < 2 {
                        continue;
                    }
                    for i in 0..hot.len() {
                        for j in (i + 1)..hot.len() {
                            let (n2, p12) = hot[i];
                            let (n3, p13) = hot[j];
                            let g12 = cross_g[p12];
                            let g13 = cross_g[p13];
                            if g12 <= 0.5 || g13 <= 0.5 {
                                continue;
                            }
                            let key = (n2.min(n3), n2.max(n3));
                            let p23 = within_index.get(&key).copied();
                            let g23 = p23.map_or(0.0, |r| within_g[r]);
                            if g12 * g13 <= g23 {
                                continue;
                            }
                            let c12 = (g12 - 0.5).abs();
                            let c13 = (g13 - 0.5).abs();
                            let c23 = (g23 - 0.5).abs();
                            if c12 <= c13 && c12 <= c23 {
                                cross_g[p12] = if g13 > 0.0 {
                                    (g23 / g13).clamp(0.0, 1.0)
                                } else {
                                    0.0
                                };
                            } else if c13 <= c12 && c13 <= c23 {
                                cross_g[p13] = if g12 > 0.0 {
                                    (g23 / g12).clamp(0.0, 1.0)
                                } else {
                                    0.0
                                };
                            } else if let Some(r23) = p23 {
                                within_g[r23] = (g12 * g13).clamp(0.0, 1.0);
                            } else if c12 <= c13 {
                                cross_g[p12] = 0.0;
                            } else {
                                cross_g[p13] = 0.0;
                            }
                        }
                    }
                }
            }

            pub fn calibrate(&self, cross_g: &mut [f64], left_g: &mut [f64], right_g: &mut [f64]) {
                // Pivot on left nodes: implied pairs live in the right table.
                Self::calibrate_side(&self.by_left, &self.right_index, cross_g, right_g);
                // Pivot on right nodes: implied pairs live in the left table.
                Self::calibrate_side(&self.by_right, &self.left_index, cross_g, left_g);
            }
        }
    }

    /// Posteriors cluster around the 0.5 decision boundary, with a few
    /// confident and exact 0/1 values.
    const NEAR_HALF: [f64; 12] = [
        0.0, 0.2, 0.45, 0.5, 0.501, 0.51, 0.55, 0.6, 0.75, 0.9, 0.99, 1.0,
    ];

    fn bits(g: &[f64]) -> Vec<u64> {
        g.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs four sweeps of both calibrators from `gammas` (cross, left,
    /// right), comparing every posterior's bits after each. Within
    /// calibrators exist only for legs with pairs, as in
    /// [`LinkageModel::fit_models`].
    fn assert_same(
        cross: &[(usize, usize)],
        left: &[(usize, usize)],
        right: &[(usize, usize)],
        gammas: [Vec<f64>; 3],
    ) {
        let new = CrossCalibrator::new(cross);
        let want = reference::CrossCalibrator::new(cross, left, right);
        let within = |pairs: &[(usize, usize)]| {
            (!pairs.is_empty()).then(|| TransitivityCalibrator::new(pairs))
        };
        let (left_cal, right_cal) = (within(left), within(right));
        let [mut c, mut l, mut r] = gammas.clone();
        let [mut wc, mut wl, mut wr] = gammas;
        for sweep in 0..4 {
            new.calibrate(
                &mut c,
                left_cal.as_ref().map(|cal| (cal, &mut l[..])),
                right_cal.as_ref().map(|cal| (cal, &mut r[..])),
            );
            want.calibrate(&mut wc, &mut wl, &mut wr);
            let case = format!("sweep {sweep} of {cross:?} / {left:?} / {right:?}");
            assert_eq!(bits(&c), bits(&wc), "cross, {case}");
            assert_eq!(bits(&l), bits(&wl), "left, {case}");
            assert_eq!(bits(&r), bits(&wr), "right, {case}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn cross_calibrator_matches_hash_maps(
            nodes in 1usize..9,
            lens in proptest::collection::vec(0usize..41, 3),
            empty in 0usize..4,
            ends in proptest::collection::vec(0usize..64, 240),
            picks in proptest::collection::vec(0usize..NEAR_HALF.len(), 120),
            jitter in proptest::collection::vec(-1e-3f64..1e-3, 120),
        ) {
            // Up to 40 pairs per leg over `nodes` nodes a side; bit 0 of
            // `empty` empties the left leg, bit 1 the right one.
            let mut legs = ends.chunks(80).zip(&lens).map(|(ends, &len)| {
                ends[..2 * len]
                    .chunks(2)
                    .map(|c| (c[0] % nodes, c[1] % nodes))
                    .collect::<Vec<_>>()
            });
            let cross = legs.next().unwrap();
            let mut left = legs.next().unwrap();
            let mut right = legs.next().unwrap();
            if empty & 1 == 1 {
                left.clear();
            }
            if empty & 2 == 2 {
                right.clear();
            }
            let mut g = picks
                .iter()
                .zip(&jitter)
                .map(|(&p, &j)| (NEAR_HALF[p] + j).clamp(0.0, 1.0));
            let mut take = |n: usize| g.by_ref().take(n).collect::<Vec<f64>>();
            let gammas = [take(cross.len()), take(left.len()), take(right.len())];
            assert_same(&cross, &left, &right, gammas);
        }
    }

    #[test]
    fn dense_legs_with_every_duplicate_and_self_pair() {
        let mut grid = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                grid.push((a, b));
            }
        }
        let cross: Vec<(usize, usize)> = grid.iter().chain(grid.iter().rev()).copied().collect();
        let near_half = |n: usize, step: usize| -> Vec<f64> {
            (0..n)
                .map(|i| NEAR_HALF[(i * step) % NEAR_HALF.len()])
                .collect()
        };
        for (left, right) in [
            (&grid[..], &grid[..]),
            (&grid[..], &[][..]),
            (&[][..], &[][..]),
        ] {
            let gammas = [
                near_half(cross.len(), 7),
                near_half(left.len(), 5),
                near_half(right.len(), 11),
            ];
            assert_same(&cross, left, right, gammas);
        }
    }
}
