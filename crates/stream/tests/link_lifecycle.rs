//! The lifecycle linkage shares with dedup through the streaming engine:
//! drift-watermark auto-refresh at ingest-call boundaries, all-or-nothing
//! batch retraction, and `update`.

use zeroer_datagen::generate;
use zeroer_datagen::profiles::pub_da;
use zeroer_stream::{IngestOutcome, LinkPipeline, Side, StreamOptions};
use zeroer_tabular::{Record, Table};

fn prefix_table(t: &Table, n: usize) -> Table {
    let mut out = Table::new("prefix", t.schema().clone());
    for r in t.records().iter().take(n) {
        out.push(r.clone());
    }
    out
}

/// A Pub-DA linkage workload: the left table plus the first 70 % of the
/// right table to bootstrap on, and the rest of the right table as the
/// stream.
fn workload() -> (Table, Table, Vec<Record>) {
    let ds = generate(&pub_da(), 0.05, 2);
    let cut = ds.right.len() * 7 / 10;
    let tail = ds.right.records()[cut..].to_vec();
    (ds.left.clone(), prefix_table(&ds.right, cut), tail)
}

fn opts() -> StreamOptions {
    StreamOptions {
        min_token_overlap: 2,
        ..StreamOptions::default()
    }
}

fn assert_outcomes_bit_identical(a: &[IngestOutcome], b: &[IngestOutcome], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{label}");
        assert_eq!(x.candidates, y.candidates, "{label} record={}", x.index);
        assert_eq!(x.cluster, y.cluster, "{label} record={}", x.index);
        assert_eq!(
            x.matches.len(),
            y.matches.len(),
            "{label} record={}",
            x.index
        );
        for ((ca, pa), (cb, pb)) in x.matches.iter().zip(&y.matches) {
            assert_eq!(ca, cb, "{label} record={}", x.index);
            assert_eq!(pa.to_bits(), pb.to_bits(), "{label} record={}", x.index);
        }
    }
}

/// The drift watermark auto-triggers a linkage refit at ingest-call
/// boundaries — and because the boundary is the call, `ingest_batch` and
/// `ingest_batch_parallel` at 1, 2 and 4 threads refit after the same
/// calls and make bit-identical decisions.
#[test]
fn link_drift_watermark_auto_refits_at_the_same_call_boundaries() {
    let (left, boot_right, tail) = workload();
    // Any nonzero divergence fires once the window holds a few records —
    // the point here is the trigger mechanics, not the threshold
    // calibration.
    let auto = StreamOptions {
        refresh_watermark: Some(1e-12),
        refresh_min_records: 4,
        ..opts()
    };
    let chunks: Vec<Vec<Record>> = tail.chunks(8).map(<[Record]>::to_vec).collect();
    assert!(chunks.len() >= 3, "the stream needs several calls");

    let run = |threads: Option<usize>| {
        let (mut p, _) =
            LinkPipeline::bootstrap(&left, &boot_right, auto.clone()).expect("bootstrap");
        let mut generations = Vec::new();
        let mut outcomes = Vec::new();
        for chunk in &chunks {
            outcomes.extend(match threads {
                None => p.ingest_batch(chunk.clone(), Side::Right),
                Some(t) => p.ingest_batch_parallel(chunk.clone(), Side::Right, t),
            });
            generations.push(p.generation());
        }
        (p, generations, outcomes)
    };

    let (sequential, want_generations, want_outcomes) = run(None);
    assert!(
        sequential.generation() > 0,
        "watermark never fired — linkage auto-refresh is dead"
    );
    for threads in [1, 2, 4] {
        let (parallel, generations, outcomes) = run(Some(threads));
        assert_eq!(generations, want_generations, "threads={threads}");
        assert_outcomes_bit_identical(&want_outcomes, &outcomes, &format!("threads={threads}"));
        assert_eq!(
            sequential.clusters(),
            parallel.clusters(),
            "threads={threads}"
        );
        assert_eq!(
            sequential.linkage(),
            parallel.linkage(),
            "threads={threads}"
        );
    }
}

/// `retract_batch` validates every id before applying any: a duplicate
/// or an unknown id leaves the pipeline exactly as it was.
#[test]
fn link_retract_batch_is_all_or_nothing() {
    let (left, boot_right, _) = workload();
    let (mut p, _) = LinkPipeline::bootstrap(&left, &boot_right, opts()).expect("bootstrap");
    let (epoch, clusters, len) = (p.epoch(), p.clusters(), p.len());

    let err = p.retract_batch(&[1, 2, 1]).expect_err("duplicate id");
    assert!(err.to_string().contains("twice"), "{err}");
    let err = p.retract_batch(&[0, len]).expect_err("unknown id");
    assert!(err.to_string().contains("unknown"), "{err}");
    assert_eq!(
        p.epoch(),
        epoch,
        "failed batches must not advance the epoch"
    );
    assert_eq!(p.clusters(), clusters);
    assert!(
        (0..len).all(|i| !p.store().is_retracted(i)),
        "nothing applied"
    );

    // A valid batch spanning both sides applies in full.
    let nl = left.len();
    let reports = p.retract_batch(&[0, nl]).expect("valid batch");
    assert_eq!(reports.len(), 2);
    assert!(p.store().is_retracted(0) && p.store().is_retracted(nl));
}

/// `update` retracts the old version and re-ingests the replacement on
/// the old version's side, under a fresh index.
#[test]
fn link_update_reingests_on_its_own_side_under_a_fresh_index() {
    let (left, boot_right, _) = workload();
    let (mut p, _) = LinkPipeline::bootstrap(&left, &boot_right, opts()).expect("bootstrap");
    let nl = left.len();

    for (idx, side) in [(nl, Side::Right), (0, Side::Left)] {
        assert_eq!(p.side(idx), side);
        let before = p.len();
        let replacement = p.store().table().records()[idx].clone();
        let out = p.update(idx, replacement).expect("update");
        assert_eq!(out.index, before, "the new version gets a fresh slot");
        assert_eq!(p.side(out.index), side, "re-ingested on its own side");
        assert!(p.store().is_retracted(idx));
        // A verbatim replacement blocks against the opposite side only,
        // so it links across like its old version did.
        assert!(
            out.matches
                .iter()
                .all(|&(c, _)| p.side(c) == side.opposite()),
            "{side:?} replacement matched its own side: {:?}",
            out.matches
        );
    }

    // A replacement that cannot be ingested must not destroy the old
    // version.
    let err = p
        .update(1, Record::new(7, vec!["only one value".into()]))
        .expect_err("arity mismatch");
    assert!(err.to_string().contains("arity"), "{err}");
    assert!(!p.store().is_retracted(1), "record 1 must survive");
}
