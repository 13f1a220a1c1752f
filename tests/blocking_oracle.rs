//! The blocking probe against the hash join it replaced, and the
//! standard rule's pair locality.
//!
//! [`reference`] is a verbatim copy of the earlier blocking core: one
//! `HashMap<Sym, Vec<usize>>` inverted index per side and key leg, a
//! bucket-by-bucket join, a `HashMap` of per-pair shared-key counts for
//! overlap blocking, and a `HashSet` candidate set sorted at the end.
//! Its standard recipe is the two-key oracle: at overlap 1 it counts
//! each pair's shared keys over the token and q-gram legs together in a
//! separate `HashMap` and keeps the pairs sharing at least two. Its
//! pruned set keeps, from the same counts, the pairs sharing at least
//! one key but fewer than the rule needs. The proptests assert that
//! [`standard_candidates_derived`] and [`pruned_candidates_derived`]
//! produce the identical pair lists in both pair modes, with and without
//! a distinct right side, at overlap floors 1–3 and at bucket caps small
//! enough that the stop-word skip fires. The pruned set is the only
//! check of the probe's one-key floor, which the support rows of a tiny
//! fit are drawn from. Records draw their words from a four-letter
//! alphabet, so many records share each token and q-gram key.
//!
//! The pair-locality proptest checks what exact retraction rests on: with
//! no stop-word bucket, a pair is a candidate of a whole table exactly
//! when it is a candidate of the two-record table holding only its
//! records — for the batch probe and for the streaming index.
//!
//! The streaming index counts shared keys in caller-owned stamp arrays
//! ([`KeyCounts`]) reused across calls. Its interleaving proptest runs
//! inserts, probes and retractions on one index with one set of
//! counters, tombstoned postings left uncompacted, and holds every
//! candidate list equal to a `HashMap` count over the live records.

use proptest::prelude::*;
use zeroer::blocking::{pruned_candidates_derived, standard_candidates_derived, PairMode};
use zeroer::stream::{IncrementalIndex, IndexConfig, KeyCounts};
use zeroer::tabular::{Record, Schema, Table, Value};
use zeroer::textsim::derive::{DeriveConfig, DerivedRecord, Deriver, KeySet};

/// The retired hash-join blocking core, kept as the parity reference.
mod reference {
    use std::collections::{HashMap, HashSet};
    use zeroer::blocking::PairMode;
    use zeroer::textsim::derive::{DerivedRecord, KeySet};
    use zeroer::textsim::Sym;

    /// `CandidateSet::new`: normalize, deduplicate through a `HashSet`,
    /// sort.
    pub fn candidate_set(
        mode: PairMode,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Vec<(usize, usize)> {
        let mut set: HashSet<(usize, usize)> = HashSet::new();
        for (a, b) in pairs {
            match mode {
                PairMode::Cross => {
                    set.insert((a, b));
                }
                PairMode::Dedup => {
                    if a != b {
                        set.insert((a.min(b), a.max(b)));
                    }
                }
            }
        }
        let mut pairs: Vec<_> = set.into_iter().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Inverted index over interned blocking keys: `key → record indices`.
    type SymIndex = HashMap<Sym, Vec<usize>>;

    fn inverted_index<'a, I, F>(keysets: I, select: F) -> SymIndex
    where
        I: Iterator<Item = &'a KeySet>,
        F: Fn(&KeySet) -> &[Sym],
    {
        let mut index = SymIndex::new();
        for (idx, ks) in keysets.enumerate() {
            for &k in select(ks) {
                index.entry(k).or_default().push(idx);
            }
        }
        index
    }

    struct IndexPair {
        left: SymIndex,
        right: Option<SymIndex>,
    }

    impl IndexPair {
        fn build<'a, F>(
            left: impl Iterator<Item = &'a KeySet>,
            right: Option<impl Iterator<Item = &'a KeySet>>,
            select: F,
        ) -> Self
        where
            F: Fn(&KeySet) -> &[Sym],
        {
            Self {
                left: inverted_index(left, &select),
                right: right.map(|r| inverted_index(r, &select)),
            }
        }

        fn sides(&self) -> (&SymIndex, &SymIndex) {
            (&self.left, self.right.as_ref().unwrap_or(&self.left))
        }
    }

    fn join_indices(
        left_index: &SymIndex,
        right_index: &SymIndex,
        mode: PairMode,
        max_bucket: usize,
    ) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (key, ls) in left_index {
            if let Some(rs) = right_index.get(key) {
                // Skip stop-word-like keys whose bucket product explodes.
                if ls.len().saturating_mul(rs.len()) > max_bucket.saturating_mul(max_bucket) {
                    continue;
                }
                for &l in ls {
                    for &r in rs {
                        if mode == PairMode::Dedup && l >= r {
                            continue;
                        }
                        pairs.push((l, r));
                    }
                }
            }
        }
        candidate_set(mode, pairs)
    }

    fn join_with_overlap(
        left_index: &SymIndex,
        right_index: &SymIndex,
        mode: PairMode,
        max_bucket: usize,
        min_overlap: usize,
    ) -> Vec<(usize, usize)> {
        if min_overlap <= 1 {
            return join_indices(left_index, right_index, mode, max_bucket);
        }
        // Count shared keys per pair, then keep pairs meeting the floor.
        let mut counts: HashMap<(usize, usize), usize> = HashMap::new();
        for (key, ls) in left_index {
            if let Some(rs) = right_index.get(key) {
                if ls.len().saturating_mul(rs.len()) > max_bucket.saturating_mul(max_bucket) {
                    continue;
                }
                for &l in ls {
                    for &r in rs {
                        if mode == PairMode::Dedup && l >= r {
                            continue;
                        }
                        *counts.entry((l, r)).or_insert(0) += 1;
                    }
                }
            }
        }
        candidate_set(
            mode,
            counts
                .into_iter()
                .filter(|&(_, c)| c >= min_overlap)
                .map(|(p, _)| p),
        )
    }

    /// Adds one per pair and shared key of one leg to `counts`,
    /// skipping stop-word buckets.
    fn count_shared(
        left_index: &SymIndex,
        right_index: &SymIndex,
        mode: PairMode,
        max_bucket: usize,
        counts: &mut HashMap<(usize, usize), usize>,
    ) {
        for (key, ls) in left_index {
            let Some(rs) = right_index.get(key) else {
                continue;
            };
            if ls.len().saturating_mul(rs.len()) > max_bucket.saturating_mul(max_bucket) {
                continue;
            }
            for &l in ls {
                for &r in rs {
                    if mode == PairMode::Dedup && l >= r {
                        continue;
                    }
                    *counts.entry((l, r)).or_insert(0) += 1;
                }
            }
        }
    }

    /// The two-key oracle: at overlap 1, the pairs sharing at least two
    /// keys over the token and q-gram legs together; at overlap ≥ 2,
    /// token overlap blocking.
    pub fn standard_candidates_derived(
        left: &[DerivedRecord],
        right: Option<&[DerivedRecord]>,
        mode: PairMode,
        min_overlap: usize,
        max_bucket: usize,
    ) -> Vec<(usize, usize)> {
        let index = |select: fn(&KeySet) -> &[Sym]| {
            IndexPair::build(
                left.iter().map(|r| r.keys()),
                right.map(|r| r.iter().map(|rec| rec.keys())),
                select,
            )
        };
        let tok = index(|k| &k.tokens);
        let (li, ri) = tok.sides();
        if min_overlap >= 2 {
            return join_with_overlap(li, ri, mode, max_bucket, min_overlap);
        }
        let qgm = index(|k| &k.qgrams);
        let (qli, qri) = qgm.sides();
        let mut counts = HashMap::new();
        count_shared(li, ri, mode, max_bucket, &mut counts);
        count_shared(qli, qri, mode, max_bucket, &mut counts);
        candidate_set(
            mode,
            counts.into_iter().filter(|&(_, c)| c >= 2).map(|(p, _)| p),
        )
    }

    /// The pairs the two-key oracle prunes: those sharing at least one
    /// key but fewer than `max(min_overlap, 2)`, token and q-gram keys
    /// counted together in one `HashMap` at overlap 1, tokens alone
    /// above.
    pub fn pruned_candidates_derived(
        left: &[DerivedRecord],
        right: Option<&[DerivedRecord]>,
        mode: PairMode,
        min_overlap: usize,
        max_bucket: usize,
    ) -> Vec<(usize, usize)> {
        let index = |select: fn(&KeySet) -> &[Sym]| {
            IndexPair::build(
                left.iter().map(|r| r.keys()),
                right.map(|r| r.iter().map(|rec| rec.keys())),
                select,
            )
        };
        let mut counts = HashMap::new();
        let tok = index(|k| &k.tokens);
        let (li, ri) = tok.sides();
        count_shared(li, ri, mode, max_bucket, &mut counts);
        if min_overlap <= 1 {
            let qgm = index(|k| &k.qgrams);
            let (qli, qri) = qgm.sides();
            count_shared(qli, qri, mode, max_bucket, &mut counts);
        }
        let need = min_overlap.max(2);
        candidate_set(
            mode,
            counts
                .into_iter()
                .filter(|&(_, c)| c < need)
                .map(|(p, _)| p),
        )
    }

    /// The streaming rule without a stop-word cap: the records of
    /// `live` sharing at least `max(min_overlap, 2)` keys with `keys`,
    /// token and q-gram keys counted together in a `HashMap` at overlap
    /// 1, tokens alone above, sorted.
    pub fn stream_candidates(
        live: &[(usize, &KeySet)],
        keys: &KeySet,
        min_overlap: usize,
    ) -> Vec<usize> {
        let tokens: fn(&KeySet) -> &[Sym] = |k| &k.tokens;
        let qgrams: fn(&KeySet) -> &[Sym] = |k| &k.qgrams;
        let legs = if min_overlap >= 2 {
            vec![tokens]
        } else {
            vec![tokens, qgrams]
        };
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for select in legs {
            let mut index = SymIndex::new();
            for &(r, ks) in live {
                for &k in select(ks) {
                    index.entry(k).or_default().push(r);
                }
            }
            for k in select(keys) {
                for &r in index.get(k).into_iter().flatten() {
                    *counts.entry(r).or_insert(0) += 1;
                }
            }
        }
        let need = min_overlap.max(2);
        let mut out: Vec<usize> = counts
            .into_iter()
            .filter(|&(_, c)| c >= need)
            .map(|(r, _)| r)
            .collect();
        out.sort_unstable();
        out
    }
}

/// A one-attribute table; empty strings become nulls, which hold no keys.
fn table(values: &[String]) -> Table {
    let mut t = Table::new("t", Schema::new(["name"]));
    for (i, v) in values.iter().enumerate() {
        let value = if v.trim().is_empty() {
            Value::Null
        } else {
            Value::Str(v.clone())
        };
        t.push(Record::new(i as u32, vec![value]));
    }
    t
}

/// Up to `max` records of two- to four-letter words over `abcd`: many
/// records share each token and q-gram key.
fn values(max: usize) -> impl Strategy<Value = Vec<String>> {
    (0..max).prop_flat_map(|n| proptest::collection::vec("[abcd ]{0,14}", n))
}

/// Derives both tables against one interner, as the pipelines do.
fn derive(left: &Table, right: &Table, q: usize) -> (Vec<DerivedRecord>, Vec<DerivedRecord>) {
    let mut deriver = Deriver::new(DeriveConfig::blocking(0, q));
    let mut all = |t: &Table| -> Vec<DerivedRecord> {
        t.records()
            .iter()
            .map(|r| deriver.derive(&r.values))
            .collect()
    };
    let l = all(left);
    let r = all(right);
    (l, r)
}

/// Bucket caps from one that skips almost every key to one that skips
/// none.
const CAPS: [usize; 4] = [1, 2, 4, 400];

fn assert_derived_parity(left: &[DerivedRecord], right: &[DerivedRecord], caps: &[usize]) {
    for mode in [PairMode::Dedup, PairMode::Cross] {
        for right in [None, Some(right)] {
            let side = if right.is_some() { "Some" } else { "None" };
            for min_overlap in 1..=3 {
                for &cap in caps {
                    let got = standard_candidates_derived(left, right, mode, min_overlap, cap);
                    let want =
                        reference::standard_candidates_derived(left, right, mode, min_overlap, cap);
                    assert_eq!(
                        got.pairs(),
                        want.as_slice(),
                        "{mode:?}, right {side}, overlap {min_overlap}, cap {cap}"
                    );
                    let got = pruned_candidates_derived(left, right, mode, min_overlap, cap);
                    let want =
                        reference::pruned_candidates_derived(left, right, mode, min_overlap, cap);
                    assert_eq!(
                        got.pairs(),
                        want.as_slice(),
                        "pruned, {mode:?}, right {side}, overlap {min_overlap}, cap {cap}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn derived_probe_matches_hash_join(l in values(40), r in values(30), q in 2usize..5) {
        let (lt, rt) = (table(&l), table(&r));
        let (ld, rd) = derive(&lt, &rt, q);
        assert_derived_parity(&ld, &rd, &CAPS);
    }
}

/// A key every record holds, with caps on both sides of its bucket.
#[test]
fn shared_stop_word_is_skipped_exactly_at_the_cap() {
    let values: Vec<String> = (0..12)
        .map(|i| format!("the item{} dd{}", i % 5, i % 3))
        .collect();
    let t = table(&values);
    let (d, _) = derive(&t, &t, 3);
    assert_derived_parity(&d, &d, &[3, 4, 11, 12, 13]);
}

/// Whether `(a, b)` is a candidate of the two-record table holding only
/// `a` and `b`, for every blocking path the standard rule drives.
fn assert_pair_local(values: &[String], right: &[String], overlap: usize) {
    let (lt, rt) = (table(values), table(right));
    let cap = values.len() + right.len() + 2;

    // The batch probe, in both pair modes.
    let (ld, rd) = derive(&lt, &rt, 4);
    let dedup = standard_candidates_derived(&ld, None, PairMode::Dedup, overlap, cap);
    for a in 0..ld.len() {
        for b in a + 1..ld.len() {
            let two = [ld[a].clone(), ld[b].clone()];
            let local = standard_candidates_derived(&two, None, PairMode::Dedup, overlap, cap);
            assert_eq!(
                dedup.contains(a, b),
                local.contains(0, 1),
                "dedup pair ({a}, {b}), overlap {overlap}"
            );
        }
    }
    let cross = standard_candidates_derived(&ld, Some(&rd), PairMode::Cross, overlap, cap);
    for (l, lrec) in ld.iter().enumerate() {
        for (r, rrec) in rd.iter().enumerate() {
            let (one_l, one_r) = ([lrec.clone()], [rrec.clone()]);
            let local =
                standard_candidates_derived(&one_l, Some(&one_r), PairMode::Cross, overlap, cap);
            assert_eq!(
                cross.contains(l, r),
                local.contains(0, 0),
                "cross pair ({l}, {r}), overlap {overlap}"
            );
        }
    }

    // The streaming index, record by record.
    let cfg = IndexConfig {
        max_bucket: cap,
        min_token_overlap: overlap,
        ..IndexConfig::default()
    };
    let mut deriver = Deriver::new(cfg.derive_config());
    let derived: Vec<DerivedRecord> = lt
        .records()
        .iter()
        .map(|r| deriver.derive(&r.values))
        .collect();
    let mut flat = IncrementalIndex::new(cfg.clone());
    let mut counts = KeyCounts::new();
    let flat_out: Vec<Vec<usize>> = derived
        .iter()
        .map(|d| flat.insert_keys(d.keys(), &mut counts))
        .collect();
    for b in 0..derived.len() {
        for a in 0..b {
            let mut pair = IncrementalIndex::new(cfg.clone());
            pair.insert_keys(derived[a].keys(), &mut counts);
            let local = !pair.insert_keys(derived[b].keys(), &mut counts).is_empty();
            assert_eq!(
                flat_out[b].contains(&a),
                local,
                "incremental pair ({a}, {b}), overlap {overlap}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn standard_rule_is_pair_local(
        l in values(24),
        r in values(12),
        overlap in 1usize..=3,
    ) {
        assert_pair_local(&l, &r, overlap);
    }
}

/// Inserts `values` one by one into one streaming index and, between
/// inserts, retracts an earlier record or probes with any record's keys,
/// as `ops` and `targets` say. One set of counters serves every call;
/// tombstoned postings stay in their buckets. Every candidate list must
/// equal the `HashMap` count over the live records.
fn assert_stream_counting(values: &[String], ops: &[usize], targets: &[usize], overlap: usize) {
    let cfg = IndexConfig {
        min_token_overlap: overlap,
        ..IndexConfig::default()
    };
    assert!(values.len() < cfg.max_bucket, "no bucket may retire");
    let mut deriver = Deriver::new(cfg.derive_config());
    let derived: Vec<DerivedRecord> = table(values)
        .records()
        .iter()
        .map(|r| deriver.derive(&r.values))
        .collect();
    let mut index = IncrementalIndex::new(cfg);
    let mut counts = KeyCounts::new();
    let mut tombstones: Vec<bool> = Vec::new();
    let live = |tombstones: &[bool]| -> Vec<(usize, &KeySet)> {
        (0..tombstones.len())
            .filter(|&r| !tombstones[r])
            .map(|r| (r, derived[r].keys()))
            .collect()
    };
    for (i, d) in derived.iter().enumerate() {
        let want = reference::stream_candidates(&live(&tombstones), d.keys(), overlap);
        let got = index.insert_keys_live(d.keys(), &tombstones, &mut counts);
        assert_eq!(got, want, "insert {i}, overlap {overlap}");
        tombstones.push(false);
        let target = targets[i % targets.len()];
        match ops[i % ops.len()] {
            0 | 1 => {
                let r = target % tombstones.len();
                if !tombstones[r] {
                    index.retract_keys(r, derived[r].keys());
                    tombstones[r] = true;
                }
            }
            2 | 3 => {
                let probe = derived[target % derived.len()].keys();
                let want = reference::stream_candidates(&live(&tombstones), probe, overlap);
                let got = index.probe_live(probe, &tombstones, &mut counts);
                assert_eq!(got, want, "probe after insert {i}, overlap {overlap}");
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stream_counting_matches_hash_map_under_interleaving(
        l in values(30),
        ops in proptest::collection::vec(0usize..6, 30),
        targets in proptest::collection::vec(0usize..30, 30),
        overlap in 1usize..=3,
    ) {
        assert_stream_counting(&l, &ops, &targets, overlap);
    }
}
