//! Metrics are observational only.
//!
//! The contract of the `zeroer-obs` instrumentation: pipelines produce
//! bit-identical outcomes — candidate counts, match posteriors (exact
//! f64 bits), cluster assignments, compaction reports and serialized
//! snapshots — with metrics on, off, or contended across worker
//! threads. Each configuration here replays the same bootstrap
//! snapshot through ingest → retract → compact and the full observable
//! state is compared against a metrics-on single-thread reference.

use zeroer_datagen::generate;
use zeroer_datagen::profiles::rest_fz;
use zeroer_stream::{
    IngestOutcome, LinkPipeline, PipelineSnapshot, Side, StreamOptions, StreamPipeline,
};
use zeroer_tabular::{Record, Table};

/// Bootstrap/stream split of a generated dedup table.
fn split(scale: f64, seed: u64) -> (Table, Vec<Record>) {
    let ds = generate(&rest_fz(), scale, seed);
    let (table, _) = ds.dedup_table();
    let cut = (table.len() * 7 / 10).max(4);
    let mut boot = Table::new("boot", table.schema().clone());
    for r in table.records().iter().take(cut) {
        boot.push(r.clone());
    }
    let tail: Vec<Record> = table.records()[cut..].to_vec();
    (boot, tail)
}

/// One outcome with its posteriors reduced to bits: index, candidate
/// count, cluster and `(candidate, posterior bits)` matches.
type OutcomeDigest = (usize, usize, usize, Vec<(usize, u64)>);

/// Outcomes with posteriors reduced to bits, so equality is exact
/// rather than within-epsilon.
fn digest_outcomes(outcomes: &[IngestOutcome]) -> Vec<OutcomeDigest> {
    outcomes
        .iter()
        .map(|o| {
            (
                o.index,
                o.candidates,
                o.cluster,
                o.matches.iter().map(|&(i, p)| (i, p.to_bits())).collect(),
            )
        })
        .collect()
}

/// Everything one run observably produces.
#[derive(Debug, PartialEq)]
struct RunDigest {
    outcomes: Vec<OutcomeDigest>,
    clusters: Vec<Vec<usize>>,
    bytes_reclaimed: usize,
    snapshot_json: String,
}

/// Restore → seed → parallel ingest → retract every 5th record →
/// compact, under the given metrics flag and thread count.
fn run_stream(
    snap: &PipelineSnapshot,
    boot: &Table,
    tail: &[Record],
    metrics: bool,
    threads: usize,
) -> RunDigest {
    let mut p = StreamPipeline::from_snapshot(snap, StreamOptions::default().threshold)
        .expect("snapshot restores");
    p.set_metrics(metrics);
    p.seed_base(boot).expect("bootstrap decisions replay");
    let outcomes = p.ingest_batch_parallel(tail.to_vec(), threads);
    let victims: Vec<usize> = (0..p.len()).filter(|i| i % 5 == 0).collect();
    for &v in &victims {
        p.retract(v).expect("live record");
    }
    let report = p.compact();
    RunDigest {
        outcomes: digest_outcomes(&outcomes),
        clusters: p.clusters(),
        bytes_reclaimed: report.bytes_reclaimed(),
        snapshot_json: p.snapshot().to_json(),
    }
}

fn assert_digests_equal(reference: &RunDigest, got: &RunDigest, label: &str) {
    assert_eq!(reference.outcomes, got.outcomes, "{label}: outcomes");
    assert_eq!(reference.clusters, got.clusters, "{label}: clusters");
    assert_eq!(
        reference.bytes_reclaimed, got.bytes_reclaimed,
        "{label}: compaction reclaim"
    );
    assert_eq!(
        reference.snapshot_json, got.snapshot_json,
        "{label}: serialized snapshot"
    );
}

#[test]
fn stream_metrics_flag_and_threads_never_change_results() {
    let (boot, tail) = split(0.15, 42);
    let (live, _) = StreamPipeline::bootstrap(&boot, StreamOptions::default()).expect("bootstrap");
    let snap = live.snapshot();
    drop(live);

    let reference = run_stream(&snap, &boot, &tail, true, 1);
    assert!(
        !reference.outcomes.is_empty(),
        "the split must leave records to stream"
    );
    for metrics in [true, false] {
        for threads in [1usize, 2, 4] {
            let got = run_stream(&snap, &boot, &tail, metrics, threads);
            assert_digests_equal(
                &reference,
                &got,
                &format!("metrics={metrics} threads={threads}"),
            );
        }
    }
}

#[test]
fn global_metrics_disable_is_observational_too() {
    // `zeroer_obs::set_enabled(false)` (the process-wide kill switch,
    // distinct from the per-pipeline `StreamOptions::metrics`) must
    // also leave results untouched. Flipping the global flag only
    // suppresses recording; no test in this binary asserts recorded
    // metric values, so this is safe under parallel test threads.
    let (boot, tail) = split(0.1, 7);
    let (live, _) = StreamPipeline::bootstrap(&boot, StreamOptions::default()).expect("bootstrap");
    let snap = live.snapshot();
    drop(live);

    let reference = run_stream(&snap, &boot, &tail, true, 2);
    zeroer_obs::set_enabled(false);
    let got = run_stream(&snap, &boot, &tail, true, 2);
    zeroer_obs::set_enabled(true);
    assert_digests_equal(&reference, &got, "global disable");
}

#[test]
fn link_metrics_flag_and_threads_never_change_results() {
    let ds = generate(&rest_fz(), 0.1, 11);
    let cut = (ds.right.len() * 7 / 10).max(2);
    let mut boot_right = Table::new("right-boot", ds.right.schema().clone());
    for r in ds.right.records().iter().take(cut) {
        boot_right.push(r.clone());
    }
    let tail: Vec<Record> = ds.right.records()[cut..].to_vec();
    let (live, _) = LinkPipeline::bootstrap(&ds.left, &boot_right, StreamOptions::default())
        .expect("linkage bootstrap");
    let snap = live.snapshot();
    drop(live);

    let run = |metrics: bool, threads: usize| {
        let mut p = LinkPipeline::from_snapshot(&snap, StreamOptions::default().threshold)
            .expect("link snapshot restores");
        p.set_metrics(metrics);
        p.seed_base(&ds.left, &boot_right).expect("seeds");
        let outcomes = p.ingest_batch_parallel(tail.clone(), Side::Right, threads);
        (
            digest_outcomes(&outcomes),
            p.clusters(),
            p.snapshot().to_json(),
        )
    };

    let reference = run(true, 1);
    assert!(
        !reference.0.is_empty(),
        "the split must leave records to stream"
    );
    for metrics in [true, false] {
        for threads in [1usize, 2, 4] {
            let got = run(metrics, threads);
            assert_eq!(
                reference, got,
                "link run diverged at metrics={metrics} threads={threads}"
            );
        }
    }
}
