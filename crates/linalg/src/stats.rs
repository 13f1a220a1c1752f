//! Weighted statistics used by the ZeroER M-step.
//!
//! The closed-form M-step updates of the paper (Eq. 8 / Eq. 11) are
//! *responsibility-weighted* sample statistics: each row of the feature
//! matrix contributes with weight `γ_i` (match class) or `1 − γ_i`
//! (unmatch class). The functions here compute those statistics plus the
//! Pearson-correlation decomposition of §4 and the min-max normalization
//! of §6.

use crate::block::{BlockDiag, GroupLayout};
use crate::matrix::Matrix;
use crate::VARIANCE_FLOOR;

/// Responsibility-weighted mean of the rows of `x`.
///
/// Returns the zero vector when the total weight is (near) zero — the
/// caller is expected to treat an empty class as degenerate.
///
/// # Panics
/// Panics if `weights.len() != x.rows()`.
pub fn weighted_mean(x: &Matrix, weights: &[f64]) -> Vec<f64> {
    assert_eq!(weights.len(), x.rows(), "one weight per row required");
    let d = x.cols();
    let mut mean = vec![0.0; d];
    let mut total = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        total += w;
        let row = x.row(i);
        for (m, &v) in mean.iter_mut().zip(row) {
            *m += w * v;
        }
    }
    if total > f64::EPSILON {
        for m in &mut mean {
            *m /= total;
        }
    }
    mean
}

/// Responsibility-weighted sample covariance `S = Σ w_i (x_i−µ)(x_i−µ)ᵀ / Σ w_i`
/// over the full feature dimensionality (Eq. 8).
///
/// # Panics
/// Panics if `weights.len() != x.rows()` or `mean.len() != x.cols()`.
pub fn weighted_covariance(x: &Matrix, weights: &[f64], mean: &[f64]) -> Matrix {
    assert_eq!(weights.len(), x.rows(), "one weight per row required");
    assert_eq!(mean.len(), x.cols(), "mean dimensionality mismatch");
    let d = x.cols();
    let mut cov = Matrix::zeros(d, d);
    let mut total = 0.0;
    let mut diff = vec![0.0; d];
    for (i, &w) in weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        total += w;
        let row = x.row(i);
        for (dst, (&v, &m)) in diff.iter_mut().zip(row.iter().zip(mean)) {
            *dst = v - m;
        }
        for a in 0..d {
            let wa = w * diff[a];
            // Fill the upper triangle only; mirror afterwards.
            for b in a..d {
                cov[(a, b)] += wa * diff[b];
            }
        }
    }
    if total > f64::EPSILON {
        cov.scale_mut(1.0 / total);
    }
    for a in 0..d {
        for b in 0..a {
            cov[(a, b)] = cov[(b, a)];
        }
    }
    cov
}

/// Responsibility-weighted per-column variances (the diagonal of
/// [`weighted_covariance`], computed without forming the full matrix).
pub fn weighted_variances(x: &Matrix, weights: &[f64], mean: &[f64]) -> Vec<f64> {
    assert_eq!(weights.len(), x.rows(), "one weight per row required");
    assert_eq!(mean.len(), x.cols(), "mean dimensionality mismatch");
    let d = x.cols();
    let mut var = vec![0.0; d];
    let mut total = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        total += w;
        for (j, (&v, &m)) in x.row(i).iter().zip(mean).enumerate() {
            let dlt = v - m;
            var[j] += w * dlt * dlt;
        }
    }
    if total > f64::EPSILON {
        for v in &mut var {
            *v /= total;
        }
    }
    var
}

/// Converts a covariance matrix to a Pearson correlation matrix
/// `R = Λ⁻¹ S Λ⁻¹` with `Λ = diag(√S[j,j])`.
///
/// Columns with (near-)zero variance get correlation 0 with everything and
/// 1 with themselves, which keeps the matrix well defined for degenerate
/// features (the same convention the recordlinkage literature uses).
pub fn covariance_to_correlation(cov: &Matrix) -> Matrix {
    assert!(cov.is_square(), "correlation of non-square covariance");
    let d = cov.rows();
    let sd: Vec<f64> = (0..d)
        .map(|j| {
            let v = cov[(j, j)];
            if v > VARIANCE_FLOOR {
                v.sqrt()
            } else {
                0.0
            }
        })
        .collect();
    let mut r = Matrix::identity(d);
    for i in 0..d {
        for j in 0..d {
            if i != j && sd[i] > 0.0 && sd[j] > 0.0 {
                // Clamp: floating error can push |r| microscopically past 1.
                r[(i, j)] = (cov[(i, j)] / (sd[i] * sd[j])).clamp(-1.0, 1.0);
            }
        }
    }
    r
}

/// Rebuilds a covariance matrix from per-feature standard deviations and a
/// shared correlation matrix: `S = Λ R Λ` (Eq. 15, the class-imbalance
/// decomposition of §4).
///
/// # Panics
/// Panics if `sd.len() != r.rows()`.
pub fn correlation_to_covariance(r: &Matrix, sd: &[f64]) -> Matrix {
    assert!(r.is_square(), "non-square correlation matrix");
    assert_eq!(sd.len(), r.rows(), "sd dimensionality mismatch");
    let d = sd.len();
    let mut cov = Matrix::zeros(d, d);
    for i in 0..d {
        for j in 0..d {
            cov[(i, j)] = r[(i, j)] * sd[i] * sd[j];
        }
    }
    cov
}

/// Both class means of the M-step in one pass over the rows: the match
/// class weights row `i` by `γ_i`, the unmatch class by `1 − γ_i`.
///
/// Each class has its own accumulators and adds its rows in row order,
/// exactly as [`weighted_mean`] does with those weights, so both means
/// are the same bits as two separate calls.
///
/// # Panics
/// Panics if `gammas.len() != x.rows()`.
pub fn class_means(x: &Matrix, gammas: &[f64]) -> [Vec<f64>; 2] {
    assert_eq!(gammas.len(), x.rows(), "one weight per row required");
    let d = x.cols();
    let (mut mean_m, mut mean_u) = (vec![0.0; d], vec![0.0; d]);
    let (mut total_m, mut total_u) = (0.0, 0.0);
    for (i, &g) in gammas.iter().enumerate() {
        let (wm, wu) = (g, 1.0 - g);
        total_m += wm;
        total_u += wu;
        for ((m, u), &v) in mean_m.iter_mut().zip(&mut mean_u).zip(x.row(i)) {
            *m += wm * v;
            *u += wu * v;
        }
    }
    for (mean, total) in [(&mut mean_m, total_m), (&mut mean_u, total_u)] {
        if total > f64::EPSILON {
            for m in mean.iter_mut() {
                *m /= total;
            }
        }
    }
    [mean_m, mean_u]
}

/// Both class variances of the M-step in one pass over the rows, with
/// the weights of [`class_means`]. Each class skips its rows of weight 0
/// and accumulates exactly as [`weighted_variances`] does, so both are
/// the same bits as two separate calls.
///
/// # Panics
/// Panics if `gammas.len() != x.rows()` or a mean's length differs from
/// `x.cols()`.
pub fn class_variances(x: &Matrix, gammas: &[f64], [mean_m, mean_u]: [&[f64]; 2]) -> [Vec<f64>; 2] {
    assert_eq!(gammas.len(), x.rows(), "one weight per row required");
    assert_eq!(mean_m.len(), x.cols(), "mean dimensionality mismatch");
    assert_eq!(mean_u.len(), x.cols(), "mean dimensionality mismatch");
    let d = x.cols();
    let (mut var_m, mut var_u) = (vec![0.0; d], vec![0.0; d]);
    let (mut total_m, mut total_u) = (0.0, 0.0);
    for (i, &g) in gammas.iter().enumerate() {
        let row = x.row(i);
        for (w, var, mean, total) in [
            (g, &mut var_m, mean_m, &mut total_m),
            (1.0 - g, &mut var_u, mean_u, &mut total_u),
        ] {
            if w == 0.0 {
                continue;
            }
            *total += w;
            for ((s, &v), &m) in var.iter_mut().zip(row).zip(mean) {
                let dlt = v - m;
                *s += w * dlt * dlt;
            }
        }
    }
    for (var, total) in [(&mut var_m, total_m), (&mut var_u, total_u)] {
        if total > f64::EPSILON {
            for v in var.iter_mut() {
                *v /= total;
            }
        }
    }
    [var_m, var_u]
}

/// The correlation of all rows restricted to `layout`'s groups (§4):
/// the blocks of [`covariance_to_correlation`] of the unweighted
/// [`weighted_covariance`], computed from the within-group entries of
/// the covariance only.
///
/// Each covariance entry sums its row products in row order and is
/// scaled as the dense matrix is, so every block entry is the bit the
/// dense path keeps after [`BlockDiag::from_dense`]; the cross-group
/// entries it discards are never formed.
pub fn block_correlation(x: &Matrix, layout: &GroupLayout) -> BlockDiag {
    let (n, d) = (x.rows(), x.cols());
    assert_eq!(d, layout.dim(), "matrix/layout dimension mismatch");
    // `weighted_mean` with unit weights, whose products `1·v` are `v`
    // and whose total is `n`, without a vector of ones.
    let total = n as f64;
    let mut mean = vec![0.0; d];
    for i in 0..n {
        for (m, &v) in mean.iter_mut().zip(x.row(i)) {
            *m += v;
        }
    }
    if total > f64::EPSILON {
        for m in &mut mean {
            *m /= total;
        }
    }
    // The upper triangle of every group, packed group after group, as
    // one flat list of column pairs: a single loop per row.
    let cells: Vec<(usize, usize)> = layout
        .iter()
        .flat_map(|(off, sz)| (off..off + sz).flat_map(move |a| (a..off + sz).map(move |b| (a, b))))
        .collect();
    let mut cov = vec![0.0; cells.len()];
    let mut diff = vec![0.0; d];
    for i in 0..n {
        for ((dst, &v), &m) in diff.iter_mut().zip(x.row(i)).zip(&mean) {
            *dst = v - m;
        }
        for (c, &(a, b)) in cov.iter_mut().zip(&cells) {
            *c += diff[a] * diff[b];
        }
    }
    if total > f64::EPSILON {
        let inv = 1.0 / total;
        for c in &mut cov {
            *c *= inv;
        }
    }
    let mut packed = cov.into_iter();
    let blocks = layout
        .iter()
        .map(|(_, sz)| {
            let mut block = Matrix::zeros(sz, sz);
            for a in 0..sz {
                for b in a..sz {
                    let c = packed.next().expect("one entry per upper cell");
                    block[(a, b)] = c;
                    block[(b, a)] = c;
                }
            }
            covariance_to_correlation(&block)
        })
        .collect();
    BlockDiag::from_blocks(blocks)
}

/// [`correlation_to_covariance`] per block: `S = Λ R Λ` from the
/// correlation blocks `r` and the per-feature standard deviations `sd`.
/// Every entry of both triangles is `r·sd_i·sd_j` in that order, as the
/// dense form computes it (`(r·sd_i)·sd_j` and `(r·sd_j)·sd_i` can differ
/// in the last bit), so each block is the dense result's block.
///
/// # Panics
/// Panics if `sd.len() != r.dim()`.
pub fn correlation_blocks_to_covariance(r: &BlockDiag, sd: &[f64]) -> BlockDiag {
    assert_eq!(sd.len(), r.dim(), "sd dimensionality mismatch");
    let blocks = r
        .layout()
        .iter()
        .zip(r.blocks())
        .map(|((off, sz), rb)| correlation_to_covariance(rb, &sd[off..off + sz]))
        .collect();
    BlockDiag::from_blocks(blocks)
}

/// The one min-max replay rule (§6): scales `v` by the `(lo, hi)` range,
/// clamping to `[0, 1]`; a degenerate span (`hi <= lo`) maps everything
/// to 0 (there is no scale to recover).
///
/// Both the batch replay path ([`apply_min_max`]) and the frozen-snapshot
/// row preparation (`zeroer_core::ModelSnapshot::prepare_row`) call this
/// single function, so the clamp/degenerate-span semantics cannot drift.
#[inline]
pub fn min_max_scale(v: f64, lo: f64, hi: f64) -> f64 {
    let span = hi - lo;
    if span > 0.0 {
        ((v - lo) / span).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Per-column min-max normalization to `[0, 1]` (§6), in place.
///
/// Constant columns are mapped to all-zeros (there is no scale to recover);
/// returns the per-column `(min, max)` pairs so test data can be
/// normalized consistently with training data.
///
/// One row-major pass finds the ranges and a second scales. Each column
/// still sees its values in row order, so the ranges and the scaled
/// values are the bits a column-by-column walk produces.
pub fn min_max_normalize(x: &mut Matrix) -> Vec<(f64, f64)> {
    let (n, d) = (x.rows(), x.cols());
    if n == 0 {
        return vec![(0.0, 0.0); d];
    }
    let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); d];
    for i in 0..n {
        for ((lo, hi), &v) in ranges.iter_mut().zip(x.row(i)) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
    }
    let spans: Vec<f64> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
    for i in 0..n {
        for ((v, &(lo, _)), &span) in x.row_mut(i).iter_mut().zip(&ranges).zip(&spans) {
            *v = if span > 0.0 { (*v - lo) / span } else { 0.0 };
        }
    }
    ranges
}

/// Applies previously computed min-max `ranges` to new data, clamping to
/// `[0, 1]` so out-of-range test values cannot destabilize the model.
/// One row-major pass; every value goes through [`min_max_scale`].
pub fn apply_min_max(x: &mut Matrix, ranges: &[(f64, f64)]) {
    assert_eq!(ranges.len(), x.cols(), "one range per column required");
    for i in 0..x.rows() {
        for (v, &(lo, hi)) in x.row_mut(i).iter_mut().zip(ranges) {
            *v = min_max_scale(*v, lo, hi);
        }
    }
}

/// Euclidean norm of a row vector.
pub fn l2_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Numerically stable `log(Σ exp(vals))`.
pub fn log_sum_exp(vals: &[f64]) -> f64 {
    let m = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + vals.iter().map(|v| (v - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Matrix {
        Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0]])
    }

    #[test]
    fn weighted_mean_uniform_weights_is_plain_mean() {
        let x = toy();
        let m = weighted_mean(&x, &[1.0, 1.0, 1.0]);
        assert_eq!(m, vec![2.0, 20.0]);
    }

    #[test]
    fn weighted_mean_skewed_weights() {
        let x = toy();
        let m = weighted_mean(&x, &[0.0, 0.0, 2.0]);
        assert_eq!(m, vec![3.0, 30.0]);
    }

    #[test]
    fn weighted_mean_zero_weights_is_zero_vector() {
        let x = toy();
        assert_eq!(weighted_mean(&x, &[0.0, 0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn covariance_uniform_weights_matches_population_covariance() {
        let x = toy();
        let mean = weighted_mean(&x, &[1.0; 3]);
        let cov = weighted_covariance(&x, &[1.0; 3], &mean);
        // Var(col0) = (1+0+1)/3 = 2/3; Cov = 20/3; Var(col1) = 200/3.
        assert!((cov[(0, 0)] - 2.0 / 3.0).abs() < 1e-12);
        assert!((cov[(0, 1)] - 20.0 / 3.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 200.0 / 3.0).abs() < 1e-12);
        assert_eq!(cov[(0, 1)], cov[(1, 0)]);
    }

    #[test]
    fn variances_match_covariance_diagonal() {
        let x = toy();
        let w = [0.2, 0.5, 0.3];
        let mean = weighted_mean(&x, &w);
        let cov = weighted_covariance(&x, &w, &mean);
        let var = weighted_variances(&x, &w, &mean);
        for j in 0..2 {
            assert!((var[j] - cov[(j, j)]).abs() < 1e-12);
        }
    }

    #[test]
    fn perfectly_correlated_columns_have_unit_correlation() {
        let x = toy();
        let mean = weighted_mean(&x, &[1.0; 3]);
        let cov = weighted_covariance(&x, &[1.0; 3], &mean);
        let r = covariance_to_correlation(&cov);
        assert!((r[(0, 1)] - 1.0).abs() < 1e-12);
        assert_eq!(r[(0, 0)], 1.0);
    }

    #[test]
    fn correlation_roundtrip_recovers_covariance() {
        let x = Matrix::from_rows(&[
            &[1.0, 2.0, 0.5],
            &[2.0, 1.0, 0.25],
            &[3.0, 5.0, 0.9],
            &[0.5, 2.5, 0.1],
        ]);
        let mean = weighted_mean(&x, &[1.0; 4]);
        let cov = weighted_covariance(&x, &[1.0; 4], &mean);
        let r = covariance_to_correlation(&cov);
        let sd: Vec<f64> = cov.diag().iter().map(|v| v.sqrt()).collect();
        let rebuilt = correlation_to_covariance(&r, &sd);
        assert!(rebuilt.max_abs_diff(&cov) < 1e-10);
    }

    #[test]
    fn degenerate_column_gets_zero_correlation() {
        let x = Matrix::from_rows(&[&[1.0, 5.0], &[2.0, 5.0], &[3.0, 5.0]]);
        let mean = weighted_mean(&x, &[1.0; 3]);
        let cov = weighted_covariance(&x, &[1.0; 3], &mean);
        let r = covariance_to_correlation(&cov);
        assert_eq!(r[(0, 1)], 0.0);
        assert_eq!(r[(1, 1)], 1.0);
    }

    #[test]
    fn min_max_normalizes_to_unit_interval() {
        let mut x = toy();
        let ranges = min_max_normalize(&mut x);
        assert_eq!(ranges, vec![(1.0, 3.0), (10.0, 30.0)]);
        assert_eq!(x[(0, 0)], 0.0);
        assert_eq!(x[(2, 0)], 1.0);
        assert_eq!(x[(1, 1)], 0.5);
    }

    #[test]
    fn min_max_constant_column_becomes_zero() {
        let mut x = Matrix::from_rows(&[&[7.0], &[7.0]]);
        min_max_normalize(&mut x);
        assert_eq!(x[(0, 0)], 0.0);
        assert_eq!(x[(1, 0)], 0.0);
    }

    #[test]
    fn apply_min_max_clamps_out_of_range() {
        let mut x = Matrix::from_rows(&[&[5.0], &[-5.0]]);
        apply_min_max(&mut x, &[(0.0, 1.0)]);
        assert_eq!(x[(0, 0)], 1.0);
        assert_eq!(x[(1, 0)], 0.0);
    }

    #[test]
    fn log_sum_exp_stable_for_large_values() {
        let v = [1000.0, 1000.0];
        assert!((log_sum_exp(&v) - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn l2_norm_known_value() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
    }
}

/// The row-major min-max passes against the column-by-column walk they
/// replaced, to the bit: constant columns, zero rows, and columns that
/// mix `0.0` with `-0.0`, whose min and max depend on the order `f64::min`
/// and `f64::max` see them in.
#[cfg(test)]
mod min_max_parity {
    use super::*;
    use proptest::prelude::*;

    /// The earlier column-wise implementation, verbatim.
    mod reference {
        use super::*;

        pub fn min_max_normalize(x: &mut Matrix) -> Vec<(f64, f64)> {
            let (n, d) = (x.rows(), x.cols());
            let mut ranges = Vec::with_capacity(d);
            for j in 0..d {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for i in 0..n {
                    let v = x[(i, j)];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if n == 0 {
                    lo = 0.0;
                    hi = 0.0;
                }
                ranges.push((lo, hi));
                let span = hi - lo;
                for i in 0..n {
                    x[(i, j)] = if span > 0.0 {
                        (x[(i, j)] - lo) / span
                    } else {
                        0.0
                    };
                }
            }
            ranges
        }

        pub fn apply_min_max(x: &mut Matrix, ranges: &[(f64, f64)]) {
            assert_eq!(ranges.len(), x.cols(), "one range per column required");
            for j in 0..x.cols() {
                let (lo, hi) = ranges[j];
                for i in 0..x.rows() {
                    x[(i, j)] = min_max_scale(x[(i, j)], lo, hi);
                }
            }
        }
    }

    /// Values drawn from this palette make signed zeros, ties and
    /// constant columns common.
    const PALETTE: [f64; 8] = [0.0, -0.0, 1.0, -2.5, 0.25, 3.0, f64::MIN_POSITIVE, -0.0];

    fn matrix() -> impl Strategy<Value = Matrix> {
        (0usize..24).prop_flat_map(|n| {
            (1usize..7).prop_flat_map(move |d| {
                proptest::collection::vec(0usize..PALETTE.len(), n * d).prop_map(move |ix| {
                    Matrix::from_vec(n, d, ix.iter().map(|&k| PALETTE[k]).collect())
                })
            })
        })
    }

    fn bits(x: &Matrix) -> Vec<u64> {
        x.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn range_bits(r: &[(f64, f64)]) -> Vec<(u64, u64)> {
        r.iter()
            .map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
            .collect()
    }

    fn assert_normalize_parity(x: &Matrix) {
        let (mut got, mut want) = (x.clone(), x.clone());
        let (rg, rw) = (
            min_max_normalize(&mut got),
            reference::min_max_normalize(&mut want),
        );
        assert_eq!(range_bits(&rg), range_bits(&rw), "ranges of {x:?}");
        assert_eq!(bits(&got), bits(&want), "normalized {x:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn normalize_matches_column_walk(x in matrix()) {
            assert_normalize_parity(&x);
        }

        #[test]
        fn apply_matches_column_walk(
            x in matrix(),
            ends in proptest::collection::vec(0usize..PALETTE.len(), 12),
        ) {
            // Ranges from the palette too: degenerate, inverted and
            // signed-zero bounds included.
            let ranges: Vec<(f64, f64)> = (0..x.cols())
                .map(|j| (PALETTE[ends[2 * j]], PALETTE[ends[2 * j + 1]]))
                .collect();
            let (mut got, mut want) = (x.clone(), x.clone());
            apply_min_max(&mut got, &ranges);
            reference::apply_min_max(&mut want, &ranges);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn constant_signed_zero_and_empty_columns() {
        assert_normalize_parity(&Matrix::from_vec(0, 3, vec![]));
        assert_normalize_parity(&Matrix::from_rows(&[
            &[7.0, 0.0],
            &[7.0, -0.0],
            &[7.0, 0.0],
        ]));
        assert_normalize_parity(&Matrix::from_rows(&[&[-0.0, 0.0], &[0.0, -0.0]]));
        assert_normalize_parity(&Matrix::from_rows(&[&[-0.0], &[-0.0]]));
    }
}
