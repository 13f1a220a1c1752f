//! Criterion micro-benchmarks for the performance-critical kernels:
//!
//! * `similarity/*` — per-measure throughput on realistic strings;
//! * `em_iteration/*` — one EM iteration (M + E step) at several sizes
//!   (the Figure 5 kernel);
//! * `estep_covariance/*` — E-step cost under the three dependence
//!   structures (the §3.2 efficiency argument: grouped ≈ independent ≪
//!   full);
//! * `feature_row` — one pair's full feature-vector generation;
//! * `standard_blocking` — the standard recipe over two small tables
//!   that are already derived.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zeroer_blocking::{standard_candidates_derived, PairMode};
use zeroer_core::{FeatureDependence, GenerativeModel, Regularization, ZeroErConfig};
use zeroer_datagen::generate;
use zeroer_datagen::profiles::rest_fz;
use zeroer_features::{DeriveConfig, PairFeaturizer};
use zeroer_linalg::block::GroupLayout;
use zeroer_linalg::Matrix;
use zeroer_textsim::{jaccard, jaro_winkler, levenshtein, monge_elkan, qgrams, words, Interner};

fn synthetic(n: usize, sizes: &[usize], seed: u64) -> Matrix {
    let d: usize = sizes.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * d)
        .map(|i| {
            if (i / d).is_multiple_of(10) {
                rng.gen_range(0.8..1.0)
            } else {
                rng.gen_range(0.0..0.3)
            }
        })
        .collect();
    Matrix::from_vec(n, d, data)
}

fn bench_similarity(c: &mut Criterion) {
    let a = "efficient query processing in distributed database systems";
    let b = "eficient query procesing for distributed data systems";
    let mut g = c.benchmark_group("similarity");
    g.bench_function("levenshtein", |bch| {
        bch.iter(|| levenshtein(black_box(a), black_box(b)))
    });
    g.bench_function("jaro_winkler", |bch| {
        bch.iter(|| jaro_winkler(black_box(a), black_box(b)))
    });
    g.bench_function("jaccard_qgm3", |bch| {
        let mut it = Interner::new();
        let (ta, tb) = (qgrams(&mut it, a, 3), qgrams(&mut it, b, 3));
        bch.iter(|| jaccard(black_box(&ta), black_box(&tb)))
    });
    g.bench_function("monge_elkan", |bch| {
        let mut it = Interner::new();
        let (wa, wb) = (words(&mut it, a), words(&mut it, b));
        bch.iter(|| monge_elkan(black_box(&it), black_box(&wa), black_box(&wb)))
    });
    g.finish();
}

fn bench_em_iteration(c: &mut Criterion) {
    let mut g = c.benchmark_group("em_iteration");
    for &n in &[1_000usize, 5_000, 20_000] {
        let x = synthetic(n, &[5, 5, 3, 3, 3, 3], 1);
        let layout = GroupLayout::from_sizes(&[5, 5, 3, 3, 3, 3]);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            let mut m = GenerativeModel::new(
                ZeroErConfig {
                    transitivity: false,
                    ..Default::default()
                },
                layout.clone(),
            );
            m.initialize(&x);
            m.m_step(&x);
            bch.iter(|| {
                m.m_step(&x);
                black_box(m.e_step(&x));
            });
        });
    }
    g.finish();
}

fn bench_estep_covariance(c: &mut Criterion) {
    let mut g = c.benchmark_group("estep_covariance");
    let sizes = [4usize; 6]; // 24 features in 6 groups
    let x = synthetic(5_000, &sizes, 2);
    let layout = GroupLayout::from_sizes(&sizes);
    for (name, dep) in [
        ("full", FeatureDependence::Full),
        ("grouped", FeatureDependence::Grouped),
        ("independent", FeatureDependence::Independent),
    ] {
        g.bench_function(name, |bch| {
            let cfg = ZeroErConfig {
                feature_dependence: dep,
                regularization: Regularization::Adaptive,
                transitivity: false,
                shared_correlation: false,
                ..Default::default()
            };
            let mut m = GenerativeModel::new(cfg, layout.clone());
            m.initialize(&x);
            m.m_step(&x);
            bch.iter(|| black_box(m.e_step(&x)));
        });
    }
    g.finish();
}

fn bench_feature_row(c: &mut Criterion) {
    let ds = generate(&rest_fz(), 0.1, 3);
    let fz = PairFeaturizer::new(&ds.left, &ds.right);
    let pairs: Vec<(usize, usize)> = (0..ds.left.len().min(ds.right.len()))
        .map(|i| (i, i))
        .collect();
    c.bench_function("feature_rows_per_pair", |bch| {
        bch.iter(|| black_box(fz.featurize(black_box(&pairs))));
    });
}

fn bench_blocking(c: &mut Criterion) {
    let ds = generate(&rest_fz(), 0.25, 4);
    let fz = PairFeaturizer::with_config(&ds.left, &ds.right, DeriveConfig::blocking(0, 4));
    let (l, r) = (fz.left_derived(), Some(fz.right_derived()));
    c.bench_function("standard_blocking", |bch| {
        bch.iter(|| black_box(standard_candidates_derived(l, r, PairMode::Cross, 1, 400)));
    });
}

criterion_group!(
    benches,
    bench_similarity,
    bench_em_iteration,
    bench_estep_covariance,
    bench_feature_row,
    bench_blocking
);
criterion_main!(benches);
