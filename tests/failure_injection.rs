//! Failure injection: degenerate inputs the full stack must survive.

use zeroer::core::{GenerativeModel, TransitivityCalibrator, ZeroErConfig};
use zeroer::features::PairFeaturizer;
use zeroer::linalg::block::GroupLayout;
use zeroer::linalg::Matrix;
use zeroer::pipeline::{dedup_table, match_tables, MatchOptions};
use zeroer::stream::{PipelineSnapshot, StreamOptions, StreamPipeline};
use zeroer::tabular::csv::read_table;
use zeroer::tabular::{Record, Schema, Table, Value};

#[test]
fn all_identical_features_do_not_crash_em() {
    // Every pair identical: a fully degenerate feature matrix (the
    // worst-case singularity input).
    let x = Matrix::from_vec(50, 4, vec![0.7; 200]);
    let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2, 2]));
    let summary = m.fit(&x, None);
    assert!(summary.iterations >= 1);
    assert!(m.gammas().iter().all(|g| g.is_finite()));
}

#[test]
fn zero_variance_columns_survive_every_ablation() {
    use zeroer::core::{FeatureDependence, Regularization};
    let mut data = Vec::new();
    for i in 0..60 {
        data.push(if i < 6 { 0.9 } else { 0.1 }); // informative
        data.push(0.5); // constant
        data.push(0.0); // constant at zero
    }
    let x = Matrix::from_vec(60, 3, data);
    for dep in [
        FeatureDependence::Full,
        FeatureDependence::Independent,
        FeatureDependence::Grouped,
    ] {
        for reg in [
            Regularization::None,
            Regularization::Tikhonov,
            Regularization::Adaptive,
        ] {
            let mut m = GenerativeModel::new(
                ZeroErConfig::ablation(dep, reg),
                GroupLayout::from_sizes(&[1, 1, 1]),
            );
            m.fit(&x, None);
            assert!(
                m.gammas().iter().all(|g| g.is_finite()),
                "{dep:?}/{reg:?} produced non-finite posteriors"
            );
        }
    }
}

#[test]
fn all_null_attribute_is_tolerated() {
    let schema = Schema::new(["name", "ghost"]);
    let mut l = Table::new("l", schema.clone());
    let mut r = Table::new("r", schema);
    for i in 0..12u32 {
        l.push(Record::new(
            i,
            vec![format!("item number {i}").into(), Value::Null],
        ));
        r.push(Record::new(
            i,
            vec![format!("item number {i}").into(), Value::Null],
        ));
    }
    let result = match_tables(&l, &r, &MatchOptions::default());
    assert!(!result.pairs.is_empty());
    assert!(result.probabilities.iter().all(|p| p.is_finite()));
}

#[test]
fn single_record_tables_yield_empty_results() {
    let schema = Schema::new(["name"]);
    let mut l = Table::new("l", schema.clone());
    l.push(Record::new(0, vec!["lonely".into()]));
    let result = dedup_table(&l, &MatchOptions::default());
    assert!(result.pairs.is_empty());
    assert!(result.clusters.is_empty());
}

#[test]
fn featurizer_handles_pairs_of_fully_null_records() {
    let schema = Schema::new(["a", "b"]);
    let mut t = Table::new("t", schema);
    t.push(Record::new(0, vec![Value::Null, Value::Null]));
    t.push(Record::new(1, vec!["x".into(), Value::Int(3)]));
    let fz = PairFeaturizer::new(&t, &t);
    let fs = fz.featurize(&[(0, 1), (0, 0)]);
    assert!(
        !fs.matrix.has_non_finite(),
        "imputation must clear all NaNs"
    );
}

#[test]
fn calibrator_with_self_consistent_chain_terminates() {
    // A long chain of overlapping triangles must not oscillate or panic.
    let pairs: Vec<(usize, usize)> = (0..50)
        .map(|i| (i, i + 1))
        .chain((0..49).map(|i| (i, i + 2)))
        .collect();
    let cal = TransitivityCalibrator::new(&pairs);
    let mut gammas = vec![0.9; pairs.len()];
    for _ in 0..5 {
        cal.calibrate(&mut gammas);
    }
    assert!(gammas.iter().all(|g| (0.0..=1.0).contains(g)));
}

#[test]
fn tiny_candidate_sets_fit() {
    // Two pairs is the minimum the mixture can say anything about.
    let x = Matrix::from_rows(&[&[0.9, 0.95], &[0.1, 0.05]]);
    let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2]));
    m.fit(&x, None);
    let labels = m.labels();
    assert!(
        labels[0] || !labels[1],
        "ordering of the two pairs must be sane"
    );
}

// ---- retraction / compaction failure paths (PR 4) -------------------

fn boot_table() -> Table {
    read_table(
        "boot",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    )
    .unwrap()
}

fn boot_pipeline() -> StreamPipeline {
    StreamPipeline::bootstrap(&boot_table(), StreamOptions::default())
        .expect("bootstrap fits")
        .0
}

#[test]
fn retract_of_unknown_or_dead_record_fails_without_side_effects() {
    let mut p = boot_pipeline();
    let epoch0 = p.epoch();
    let clusters0 = p.clusters();

    let err = p.retract(p.len()).expect_err("out-of-range index");
    assert!(err.to_string().contains("unknown record index"), "{err}");

    p.retract(2).expect("first retraction");
    let err = p.retract(2).expect_err("double retraction");
    assert!(err.to_string().contains("already retracted"), "{err}");

    // Failed calls leave no trace: one epoch tick, untouched clusters.
    assert_eq!(p.epoch(), epoch0 + 1);
    assert_eq!(p.clusters(), clusters0, "record 2 was a singleton");

    // A poisoned batch rolls back entirely (valid ids included).
    let err = p
        .retract_batch(&[0, 2])
        .expect_err("batch containing a dead record");
    assert!(err.to_string().contains("already retracted"), "{err}");
    assert!(!p.store().is_retracted(0), "valid id must not be applied");
}

#[test]
fn batch_with_a_bad_arity_record_panics_before_applying_any() {
    // The good record comes first, so a check that runs record by record
    // would ingest it before reaching the bad one.
    for threads in [1, 2] {
        let mut p = boot_pipeline();
        let (len, clusters) = (p.len(), p.clusters());
        let batch = vec![
            Record::new(100, vec!["Golden Dragon Palace".into(), "new york".into()]),
            Record::new(101, vec!["Blue Sky Tavern".into()]),
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.ingest_batch_parallel(batch, threads)
        }));
        assert!(result.is_err(), "threads={threads}: the batch must panic");
        assert_eq!(p.len(), len, "threads={threads}: no record may be applied");
        assert_eq!(p.clusters(), clusters, "threads={threads}");
    }
}

#[test]
fn compaction_between_parallel_batches_keeps_thread_parity() {
    // Compaction cannot literally race a batch (`&mut self` serializes
    // them), so the adversarial schedule is compact *between* batches,
    // mid-tombstone, and the guarantee is thread-count parity of the
    // whole schedule.
    let (live, _) = StreamPipeline::bootstrap(&boot_table(), StreamOptions::default()).unwrap();
    let snap = live.snapshot();
    let batch_a: Vec<Record> = boot_table().records().to_vec();
    let batch_b: Vec<Record> = vec![
        Record::new(100, vec!["Golden Dragon Palace".into(), "new york".into()]),
        Record::new(101, vec!["Blue Sky Tavern".into(), "austin".into()]),
        Record::new(
            102,
            vec!["Totally Unseen Steakhouse".into(), "miami".into()],
        ),
    ];

    let run = |threads: usize| {
        let mut p = StreamPipeline::from_snapshot(&snap, 0.5).expect("restores");
        let mut outs = p.ingest_batch_parallel(batch_a.clone(), threads);
        p.retract(0).expect("retract mid-stream");
        p.retract(2).expect("retract mid-stream");
        p.compact();
        outs.extend(p.ingest_batch_parallel(batch_b.clone(), threads));
        (p.clusters(), p.epoch(), outs)
    };
    let (clusters1, epoch1, outs1) = run(1);
    for threads in [2, 4] {
        let (c, e, o) = run(threads);
        assert_eq!(c, clusters1, "threads={threads}");
        assert_eq!(e, epoch1, "threads={threads}");
        assert_eq!(o.len(), outs1.len());
        for (a, b) in outs1.iter().zip(&o) {
            assert_eq!(a.index, b.index, "threads={threads}");
            assert_eq!(a.candidates, b.candidates, "threads={threads}");
            assert_eq!(a.matches, b.matches, "threads={threads}");
            assert_eq!(a.cluster, b.cluster, "threads={threads}");
        }
    }
}

#[test]
fn snapshot_save_load_mid_tombstone_round_trips_exactly() {
    let mut live = boot_pipeline();
    live.retract(1).expect("retract a bootstrap record");
    let snap_text = live.snapshot().to_json();

    let reloaded = PipelineSnapshot::from_json(&snap_text).expect("parses");
    assert_eq!(reloaded.tombstones, vec![1]);
    let mut cold = StreamPipeline::from_snapshot(&reloaded, 0.5).expect("restores");
    cold.seed_base(&boot_table())
        .expect("seeds with tombstones");
    assert_eq!(cold.clusters(), live.clusters());
    assert_eq!(cold.epoch(), live.epoch());
    assert!(cold.store().is_retracted(1));
}

#[test]
fn snapshot_with_streamed_tombstones_fails_cleanly_to_restore() {
    let mut live = boot_pipeline();
    let out = live.ingest(Record::new(
        50,
        vec!["Totally Unseen Steakhouse".into(), "miami".into()],
    ));
    live.retract(out.index).expect("retract a streamed record");
    let snap = live.snapshot();
    assert!(snap.tombstones.contains(&out.index));

    // The streamed record is not persisted, so its retraction cannot be
    // reconstructed: restore must refuse with a real error, not panic or
    // silently drop the tombstone.
    let reparsed = PipelineSnapshot::from_json(&snap.to_json()).expect("format stays parseable");
    let Err(err) = StreamPipeline::from_snapshot(&reparsed, 0.5) else {
        panic!("restore must refuse a snapshot with streamed tombstones");
    };
    assert!(
        err.to_string().contains("cannot be restored"),
        "unexpected error: {err}"
    );
}

#[test]
fn pending_tombstones_block_retraction_until_seeded() {
    let mut live = boot_pipeline();
    live.retract(3).unwrap();
    let snap = live.snapshot();
    let mut cold = StreamPipeline::from_snapshot(&snap, 0.5).expect("restores");
    let err = cold.retract(0).expect_err("tombstones pending");
    assert!(err.to_string().contains("seed_base"), "{err}");
    cold.seed_base(&boot_table()).expect("seeds");
    cold.retract(0).expect("retraction works after seeding");
}
