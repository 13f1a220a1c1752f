//! Batch/incremental blocking parity.
//!
//! The incremental index must produce exactly the candidate set the batch
//! standard recipe (`standard_candidates_derived`, over the table derived
//! under the index's own `IndexConfig::derive_config`) produces when
//! records are inserted one at a time — on any dataset where no bucket
//! crosses the frequency cap (structurally guaranteed here: every table
//! is far smaller than the cap), the sets are equal, not merely similar.

use proptest::prelude::*;
use std::collections::BTreeSet;
use zeroer_blocking::{standard_candidates_derived, PairMode};
use zeroer_datagen::{all_profiles, generate};
use zeroer_stream::{IncrementalIndex, IndexConfig, KeyCounts};
use zeroer_tabular::{Record, Schema, Table, Value};
use zeroer_textsim::derive::Deriver;

/// One dedup table (left ++ right) from a generated linkage dataset.
fn dedup_table_of(profile_idx: usize, scale: f64, seed: u64) -> Table {
    let profiles = all_profiles();
    let ds = generate(&profiles[profile_idx % profiles.len()], scale, seed);
    ds.dedup_table().0
}

/// Runs the incremental index record-by-record — deriving each record
/// once through the shared derivation layer — and collects the full
/// emitted pair set, normalized as `(small, large)`.
fn incremental_pairs(table: &Table, cfg: IndexConfig) -> BTreeSet<(usize, usize)> {
    let mut deriver = Deriver::new(cfg.derive_config());
    let mut index = IncrementalIndex::new(cfg);
    let mut counts = KeyCounts::new();
    let mut pairs = BTreeSet::new();
    for (idx, r) in table.records().iter().enumerate() {
        let d = deriver.derive(&r.values);
        for c in index.insert_keys(d.keys(), &mut counts) {
            assert!(c < idx, "candidates must be previously inserted records");
            pairs.insert((c, idx));
        }
    }
    pairs
}

/// The batch probe over the whole table, derived once under `cfg`.
fn batch_pairs(table: &Table, cfg: &IndexConfig) -> BTreeSet<(usize, usize)> {
    let mut deriver = Deriver::new(cfg.derive_config());
    let derived: Vec<_> = table
        .records()
        .iter()
        .map(|r| deriver.derive(&r.values))
        .collect();
    let (overlap, cap) = (cfg.min_token_overlap, cfg.max_bucket);
    standard_candidates_derived(&derived, None, PairMode::Dedup, overlap, cap)
        .pairs()
        .iter()
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Default recipe (two shared keys over tokens and 4-grams) on every
    /// dataset profile.
    /// The cap is lifted above the table size on both sides so no bucket
    /// can overflow: in that regime batch and incremental candidate sets
    /// must be *identical* (overflow divergence is tested separately).
    #[test]
    fn union_recipe_matches_batch(profile in 0usize..6, seed in 0u64..1000) {
        let table = dedup_table_of(profile, 0.01, seed);
        let cfg = IndexConfig { max_bucket: table.len().max(2), ..Default::default() };
        let batch = batch_pairs(&table, &cfg);
        let incremental = incremental_pairs(&table, cfg);
        prop_assert_eq!(incremental.len(), batch.len(),
            "batch and incremental candidate-set sizes diverge");
        prop_assert!(incremental == batch, "candidate sets diverge");
    }

    /// Overlap blocking (≥ 2 shared tokens, no q-gram leg).
    #[test]
    fn overlap_recipe_matches_batch(profile in 0usize..6, seed in 0u64..1000) {
        let table = dedup_table_of(profile, 0.01, seed);
        let cfg = IndexConfig {
            min_token_overlap: 2,
            max_bucket: table.len().max(2),
            ..Default::default()
        };
        let batch = batch_pairs(&table, &cfg);
        let incremental = incremental_pairs(&table, cfg);
        prop_assert!(incremental == batch, "overlap candidate sets diverge");
    }

    /// Random short strings over a tiny vocabulary — much denser bucket
    /// collisions than the realistic generators produce.
    #[test]
    fn dense_collisions_match_batch(
        words in proptest::collection::vec(0usize..8, 30),
        seed in 0u64..50,
    ) {
        const VOCAB: [&str; 8] =
            ["red", "green", "blue", "apple", "pear", "plum", "sky", "sea"];
        let mut t = Table::new("dense", Schema::new(["name"]));
        for (i, &w) in words.iter().enumerate() {
            let second = VOCAB[(w + seed as usize + i) % VOCAB.len()];
            t.push(Record::new(
                i as u32,
                vec![Value::Str(format!("{} {second}", VOCAB[w]))],
            ));
        }
        let batch = batch_pairs(&t, &IndexConfig::default());
        let incremental = incremental_pairs(&t, IndexConfig::default());
        prop_assert_eq!(&incremental, &batch);
    }
}

/// Realistic setting: default cap (400) on a dataset smaller than the
/// cap, where overflow is impossible and parity must be exact.
#[test]
fn default_cap_parity_on_restaurants() {
    let profiles = all_profiles();
    let rest = profiles
        .iter()
        .position(|p| p.notation.contains("FZ"))
        .unwrap_or(0);
    let table = dedup_table_of(rest, 0.25, 5);
    assert!(
        table.len() < 400,
        "premise: table smaller than the bucket cap"
    );
    let batch = batch_pairs(&table, &IndexConfig::default());
    let incremental = incremental_pairs(&table, IndexConfig::default());
    assert_eq!(incremental, batch);
}

/// The one intended divergence: a bucket overflowing the cap mid-stream
/// stops pairing from the crossing point on, while batch drops the bucket
/// retroactively. The divergence is bounded by pairs among the first
/// `cap` members. Every record shares two hot keys, so the early pairs
/// pass the two-key rule.
#[test]
fn cap_overflow_divergence_is_bounded_and_one_sided() {
    let mut t = Table::new("hot", Schema::new(["name"]));
    for i in 0..30 {
        t.push(Record::new(
            i as u32,
            vec![Value::Str(format!("the hot item{i}"))],
        ));
    }
    let cap = 5;
    let cfg = IndexConfig {
        qgram: 0,
        max_bucket: cap,
        ..Default::default()
    };
    let batch = batch_pairs(&t, &cfg);
    let incremental = incremental_pairs(&t, cfg);
    assert!(
        batch.is_empty(),
        "batch drops the overflowing 'the' and 'hot' buckets entirely"
    );
    assert!(
        !incremental.is_empty(),
        "the early records pair through both hot keys"
    );
    assert!(
        incremental.len() <= cap * (cap - 1) / 2,
        "early pairs are bounded by the cap: {}",
        incremental.len()
    );
    assert!(
        incremental.iter().all(|&(_, b)| b < cap),
        "no pairs may be emitted after the bucket is retired"
    );
}
