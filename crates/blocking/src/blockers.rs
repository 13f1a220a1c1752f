//! Blocking strategy implementations.
//!
//! All key-based blockers operate on *interned* blocking keys
//! ([`zeroer_textsim::intern::Sym`]) extracted through the record
//! derivation layer. Each key leg (tokens, q-grams, the equivalence key)
//! gets compressed postings: one offset array indexed by the symbol's
//! dense index and one array of member records, ascending. Blocking is
//! then a per-record probe: each left record walks the buckets of its
//! own keys, skips stop-word buckets, marks its partners in a stamp
//! array while counting the keys they share, and appends them sorted.
//! The pairs come out normalized, unique and sorted, so nothing is
//! hashed.
//!
//! The standard recipe ([`standard_recipe`], [`standard_candidates_derived`]
//! and the streaming indexes of `zeroer-stream`) keeps a pair only when
//! its two records share at least two blocking keys, token and q-gram
//! keys counted together ([`standard_rule`]). This is the pair-local
//! edge-weight pruning of Papadakis et al., *Meta-Blocking* (TKDE 2014),
//! with the shared-key count as the edge weight: it drops the pairs
//! whose only link is one common key (often a padded boundary q-gram
//! such as `###g`), and since it reads only the two records' key sets, a
//! pair's fate never depends on the rest of the table.
//!
//! Callers that already hold a derivation (the high-level pipelines,
//! the streaming bootstrap) use [`standard_candidates_derived`] to block
//! without re-tokenizing anything; the [`Blocker`] trait implementations
//! extract keys themselves for standalone use and run the same probe.

use crate::candidate::{CandidateSet, PairMode};
use crate::keys::TableKeys;
use std::borrow::Borrow;
use zeroer_tabular::Table;
use zeroer_textsim::derive::{DerivedRecord, KeySet};
use zeroer_textsim::intern::Sym;
use zeroer_textsim::tokenize::normalize;

/// A blocking strategy: maps two tables (or one table against itself) to a
/// [`CandidateSet`].
pub trait Blocker {
    /// Generates candidates between `left` and `right`. Use the same table
    /// for both with [`PairMode::Dedup`] for deduplication.
    fn candidates(&self, left: &Table, right: &Table, mode: PairMode) -> CandidateSet;
}

/// Emits every pair — the "no blocking" baseline, only viable for small
/// inputs but exactly what the paper's setting assumes for tiny datasets.
#[derive(Debug, Clone, Copy, Default)]
pub struct CartesianBlocker;

impl Blocker for CartesianBlocker {
    fn candidates(&self, left: &Table, right: &Table, mode: PairMode) -> CandidateSet {
        let mut pairs = Vec::new();
        match mode {
            PairMode::Cross => {
                for l in 0..left.len() {
                    for r in 0..right.len() {
                        pairs.push((l, r));
                    }
                }
            }
            PairMode::Dedup => {
                for a in 0..left.len() {
                    for b in (a + 1)..left.len() {
                        pairs.push((a, b));
                    }
                }
            }
        }
        CandidateSet::new(mode, pairs)
    }
}

/// Selects one key leg of a record's [`KeySet`]: its token keys, its
/// q-gram keys or its equivalence key.
type Leg = fn(&KeySet) -> &[Sym];

fn token_keys(k: &KeySet) -> &[Sym] {
    &k.tokens
}

fn qgram_keys(k: &KeySet) -> &[Sym] {
    &k.qgrams
}

fn equiv_key(k: &KeySet) -> &[Sym] {
    k.equiv.as_slice()
}

/// Compressed postings of one key leg: the records holding key `k` are
/// `members[offsets[k]..offsets[k + 1]]`, ascending. Keys are interner
/// symbols, so the largest one bounds the offset array.
struct Postings {
    offsets: Vec<usize>,
    members: Vec<u32>,
}

impl Postings {
    fn build<K: Borrow<KeySet>>(records: &[K], leg: Leg) -> Self {
        let keys = || records.iter().map(|r| leg(r.borrow()));
        let width = keys().flatten().map(|k| k.index() + 1).max().unwrap_or(0);
        let mut offsets = vec![0; width + 1];
        for &k in keys().flatten() {
            offsets[k.index() + 1] += 1;
        }
        for k in 0..width {
            offsets[k + 1] += offsets[k];
        }
        let mut next = offsets[..width].to_vec();
        let mut members = vec![0; offsets[width]];
        for (idx, ks) in keys().enumerate() {
            for &k in ks {
                members[next[k.index()]] = idx as u32;
                next[k.index()] += 1;
            }
        }
        Self { offsets, members }
    }

    /// The records holding `k`, ascending (empty for an unseen key).
    fn bucket(&self, k: Sym) -> &[u32] {
        match self.offsets.get(k.index()..k.index() + 2) {
            Some(&[lo, hi]) => &self.members[lo..hi],
            _ => &[],
        }
    }
}

/// The standard recipe's pair rule at one overlap floor (see
/// [`standard_rule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRule {
    /// Whether the q-gram leg is probed; its keys then count together
    /// with the token keys.
    pub qgram_leg: bool,
    /// Shared keys a pair needs, summed over the probed legs.
    pub min_shared_keys: usize,
}

impl KeyRule {
    fn legs(self) -> &'static [Leg] {
        if self.qgram_leg {
            &[token_keys, qgram_keys]
        } else {
            &[token_keys]
        }
    }
}

/// The pair rule of the standard blocking recipe, written once for every
/// caller: [`standard_candidates_derived`], [`standard_recipe`] and the
/// streaming indexes of `zeroer-stream`. A pair needs
/// `max(min_token_overlap, 2)` shared keys. With `min_token_overlap ≤ 1`
/// (the default) both legs are probed and a shared token and a shared
/// q-gram count alike; with `min_token_overlap ≥ 2` only the token leg
/// is probed, which is overlap blocking.
pub fn standard_rule(min_token_overlap: usize) -> KeyRule {
    KeyRule {
        qgram_leg: min_token_overlap <= 1,
        min_shared_keys: min_token_overlap.max(2),
    }
}

/// The blocking core every key-based blocker runs: probes each left
/// record's keys of every leg against the right postings (the left ones
/// for a self-join, `right = None`) and keeps the partners sharing at
/// least `need` keys over all legs together (at least one when
/// `need ≤ 1`).
///
/// A key whose bucket product `|L_k|·|R_k|` exceeds `max_bucket²` is a
/// stop word and is skipped. In [`PairMode::Dedup`] a left record `l`
/// pairs only with right records `r > l`. Partners are marked in a
/// stamp array while their shared keys are counted, then sorted, so the
/// pairs come out normalized, unique and sorted without hashing.
fn probe<K: Borrow<KeySet>>(
    left: &[K],
    right: Option<&[K]>,
    legs: &[Leg],
    mode: PairMode,
    max_bucket: usize,
    need: usize,
) -> CandidateSet {
    let right_len = right.map_or(left.len(), <[K]>::len);
    assert!(
        left.len().max(right_len) < u32::MAX as usize,
        "blocking indexes records by u32"
    );
    let stop = max_bucket.saturating_mul(max_bucket);
    let need = u32::try_from(need.max(1)).unwrap_or(u32::MAX);
    let postings: Vec<(Postings, Option<Postings>)> = legs
        .iter()
        .map(|&leg| {
            let own = Postings::build(left, leg);
            (own, right.map(|r| Postings::build(r, leg)))
        })
        .collect();
    let mut stamp = vec![u32::MAX; right_len];
    let mut shared = vec![0u32; right_len];
    // Partners are gathered as `u32`s, record after record (record `l`'s
    // end at `ends[l]`), and widened into pairs once the indexes are
    // freed, in one allocation of the exact size rather than a doubling
    // list of 16-byte pairs.
    let (mut partners, mut ends) = (Vec::new(), Vec::with_capacity(left.len()));
    for (l, rec) in left.iter().enumerate() {
        let tag = l as u32;
        let from = partners.len();
        for (&leg, (own, other)) in legs.iter().zip(&postings) {
            let other = other.as_ref().unwrap_or(own);
            for &k in leg(rec.borrow()) {
                let bucket = other.bucket(k);
                if own.bucket(k).len().saturating_mul(bucket.len()) > stop {
                    continue;
                }
                let bucket = match mode {
                    PairMode::Cross => bucket,
                    PairMode::Dedup => &bucket[bucket.partition_point(|&r| r <= tag)..],
                };
                for &r in bucket {
                    let r = r as usize;
                    if stamp[r] != tag {
                        stamp[r] = tag;
                        shared[r] = 0;
                    }
                    shared[r] += 1;
                    if shared[r] == need {
                        partners.push(r as u32);
                    }
                }
            }
        }
        partners[from..].sort_unstable();
        ends.push(partners.len());
    }
    drop((postings, stamp, shared));
    let mut pairs = Vec::with_capacity(partners.len());
    let mut from = 0;
    for (l, &end) in ends.iter().enumerate() {
        pairs.extend(partners[from..end].iter().map(|&r| (l, r as usize)));
        from = end;
    }
    CandidateSet::from_sorted(mode, pairs)
}

/// The standard blocking recipe over an **existing derivation**: the
/// pairs whose records share at least [`standard_rule`]'s number of
/// blocking keys — two by default, token and q-gram keys counted
/// together, or `min_overlap` shared tokens for `min_overlap ≥ 2` —
/// exactly what [`standard_recipe`] computes, minus any tokenization.
/// Pass `right = None` to block one derivation against itself.
///
/// The derivations must carry blocking keys (derive with a
/// `BlockSpec` whose `qgram` matches: > 0 when `min_overlap ≤ 1`).
pub fn standard_candidates_derived(
    left: &[DerivedRecord],
    right: Option<&[DerivedRecord]>,
    mode: PairMode,
    min_overlap: usize,
    max_bucket: usize,
) -> CandidateSet {
    let rule = standard_rule(min_overlap);
    probe_derived(left, right, mode, rule, max_bucket, rule.min_shared_keys)
}

/// The pairs [`standard_candidates_derived`] prunes: those whose records
/// share at least one blocking key over the rule's legs, but fewer than
/// the rule needs (by default, the *one-key pairs*). Sorted like a
/// candidate set.
pub fn pruned_candidates_derived(
    left: &[DerivedRecord],
    right: Option<&[DerivedRecord]>,
    mode: PairMode,
    min_overlap: usize,
    max_bucket: usize,
) -> CandidateSet {
    let rule = standard_rule(min_overlap);
    let kept = probe_derived(left, right, mode, rule, max_bucket, rule.min_shared_keys);
    let any = probe_derived(left, right, mode, rule, max_bucket, 1);
    let pruned = any
        .pairs()
        .iter()
        .filter(|p| kept.pairs().binary_search(p).is_err())
        .copied()
        .collect();
    CandidateSet::from_sorted(mode, pruned)
}

/// [`probe`] over the derivations' keys, on the legs `rule` probes.
fn probe_derived(
    left: &[DerivedRecord],
    right: Option<&[DerivedRecord]>,
    mode: PairMode,
    rule: KeyRule,
    max_bucket: usize,
    need: usize,
) -> CandidateSet {
    fn keys(recs: &[DerivedRecord]) -> Vec<&KeySet> {
        recs.iter().map(DerivedRecord::keys).collect()
    }
    let right = right.map(keys);
    probe(
        &keys(left),
        right.as_deref(),
        rule.legs(),
        mode,
        max_bucket,
        need,
    )
}

/// Extracts left/right key sets for a trait blocker invocation: one
/// shared interner, the right side reusing the left for dedup mode.
fn extract_keys(
    left: &Table,
    right: &Table,
    mode: PairMode,
    attr: usize,
    qgram: usize,
    equiv: bool,
) -> (Vec<KeySet>, Option<Vec<KeySet>>) {
    if mode == PairMode::Dedup {
        (TableKeys::build(left, attr, qgram, equiv).keys, None)
    } else {
        let (lk, rk) = TableKeys::build_pair(left, right, attr, qgram, equiv);
        (lk.keys, Some(rk))
    }
}

/// Pairs that share at least `min_overlap` *word tokens* on a key
/// attribute (overlap blocking, Magellan's `OverlapBlocker`).
///
/// `max_bucket` bounds the per-token bucket size (buckets whose pair
/// product exceeds `max_bucket²` are treated as stop words and skipped) —
/// the standard guard against quadratic blowup. `min_overlap > 1` is the
/// standard recipe for multi-word attributes (paper titles, product
/// descriptions) where single shared words are too common to prune
/// anything.
#[derive(Debug, Clone)]
pub struct TokenBlocker {
    /// Attribute index to block on.
    pub attr: usize,
    /// Stop-word bucket guard (see type docs).
    pub max_bucket: usize,
    /// Minimum number of shared tokens required.
    pub min_overlap: usize,
}

impl TokenBlocker {
    /// Token blocking on `attr` with a default bucket cap of 400 and
    /// single-token overlap.
    pub fn new(attr: usize) -> Self {
        Self {
            attr,
            max_bucket: 400,
            min_overlap: 1,
        }
    }

    /// Overlap blocking requiring `min_overlap` shared tokens.
    pub fn with_overlap(attr: usize, min_overlap: usize) -> Self {
        assert!(min_overlap >= 1, "overlap must be at least 1");
        Self {
            attr,
            max_bucket: 400,
            min_overlap,
        }
    }
}

impl Blocker for TokenBlocker {
    fn candidates(&self, left: &Table, right: &Table, mode: PairMode) -> CandidateSet {
        let (lk, rk) = extract_keys(left, right, mode, self.attr, 0, false);
        probe(
            &lk,
            rk.as_deref(),
            &[token_keys],
            mode,
            self.max_bucket,
            self.min_overlap,
        )
    }
}

/// Pairs that share at least one character q-gram on a key attribute —
/// higher recall than token blocking (robust to typos inside tokens) at
/// the cost of more candidates.
#[derive(Debug, Clone)]
pub struct QgramBlocker {
    /// Attribute index to block on.
    pub attr: usize,
    /// q-gram size.
    pub q: usize,
    /// Stop-gram bucket guard.
    pub max_bucket: usize,
}

impl QgramBlocker {
    /// q-gram blocking on `attr` with gram size `q` and bucket cap 400.
    pub fn new(attr: usize, q: usize) -> Self {
        Self {
            attr,
            q,
            max_bucket: 400,
        }
    }
}

impl Blocker for QgramBlocker {
    fn candidates(&self, left: &Table, right: &Table, mode: PairMode) -> CandidateSet {
        let (lk, rk) = extract_keys(left, right, mode, self.attr, self.q, false);
        probe(&lk, rk.as_deref(), &[qgram_keys], mode, self.max_bucket, 1)
    }
}

/// Pairs with exactly equal (normalized) values on an attribute.
#[derive(Debug, Clone)]
pub struct AttrEquivalenceBlocker {
    /// Attribute index to block on.
    pub attr: usize,
}

impl Blocker for AttrEquivalenceBlocker {
    fn candidates(&self, left: &Table, right: &Table, mode: PairMode) -> CandidateSet {
        let (lk, rk) = extract_keys(left, right, mode, self.attr, 0, true);
        probe(&lk, rk.as_deref(), &[equiv_key], mode, usize::MAX / 2, 1)
    }
}

/// Sorted-neighborhood blocking: sort both tables by a normalized key
/// attribute, merge the sorted lists, slide a window of size `window`,
/// and pair records from opposite sides (or any two records, for dedup).
#[derive(Debug, Clone)]
pub struct SortedNeighborhood {
    /// Attribute index used as sort key.
    pub attr: usize,
    /// Window size (number of consecutive sorted entries considered).
    pub window: usize,
}

impl Blocker for SortedNeighborhood {
    fn candidates(&self, left: &Table, right: &Table, mode: PairMode) -> CandidateSet {
        #[derive(Clone)]
        struct Entry {
            key: String,
            side: bool, // false = left, true = right
            idx: usize,
        }
        // The sort key is the derivation layer's normalized-equality
        // form; computed directly (no bags, no interner) since this
        // blocker only compares keys lexicographically.
        let sort_keys = |table: &Table| -> Vec<String> {
            (0..table.len())
                .map(|idx| {
                    table
                        .value(idx, self.attr)
                        .as_text()
                        .map(|t| normalize(&t))
                        .unwrap_or_default()
                })
                .collect()
        };
        let mut entries: Vec<Entry> = Vec::new();
        for (idx, key) in sort_keys(left).into_iter().enumerate() {
            entries.push(Entry {
                key,
                side: false,
                idx,
            });
        }
        if mode == PairMode::Cross {
            for (idx, key) in sort_keys(right).into_iter().enumerate() {
                entries.push(Entry {
                    key,
                    side: true,
                    idx,
                });
            }
        }
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let mut pairs = Vec::new();
        for i in 0..entries.len() {
            let hi = (i + self.window).min(entries.len());
            for j in (i + 1)..hi {
                let (a, b) = (&entries[i], &entries[j]);
                match mode {
                    PairMode::Cross => {
                        if a.side != b.side {
                            let (l, r) = if a.side {
                                (b.idx, a.idx)
                            } else {
                                (a.idx, b.idx)
                            };
                            pairs.push((l, r));
                        }
                    }
                    PairMode::Dedup => pairs.push((a.idx, b.idx)),
                }
            }
        }
        CandidateSet::new(mode, pairs)
    }
}

/// The standard blocking recipe shared by the batch (`MatchOptions`) and
/// streaming (`StreamOptions`) pipelines: one probe that keeps the pairs
/// sharing at least [`standard_rule`]'s number of keys — two by default,
/// over the token and q-gram legs together, or `min_overlap` shared
/// tokens for `min_overlap ≥ 2`. Keeping the rule in one place
/// guarantees the pipelines cannot drift apart.
///
/// Callers that already derived their tables should prefer
/// [`standard_candidates_derived`], which computes the same candidate
/// set from the derivation's keys without tokenizing anything.
pub fn standard_recipe(
    attr: usize,
    min_overlap: usize,
    q: usize,
    max_bucket: usize,
) -> Box<dyn Blocker + Send + Sync> {
    Box::new(StandardBlocker {
        attr,
        q,
        max_bucket,
        rule: standard_rule(min_overlap),
    })
}

/// The blocker [`standard_recipe`] returns.
struct StandardBlocker {
    attr: usize,
    q: usize,
    max_bucket: usize,
    rule: KeyRule,
}

impl Blocker for StandardBlocker {
    fn candidates(&self, left: &Table, right: &Table, mode: PairMode) -> CandidateSet {
        let q = if self.rule.qgram_leg { self.q } else { 0 };
        let (lk, rk) = extract_keys(left, right, mode, self.attr, q, false);
        probe(
            &lk,
            rk.as_deref(),
            self.rule.legs(),
            mode,
            self.max_bucket,
            self.rule.min_shared_keys,
        )
    }
}

/// Union of several blockers (boosts recall; the candidate sets are
/// merged and deduplicated).
pub struct UnionBlocker {
    blockers: Vec<Box<dyn Blocker + Send + Sync>>,
}

impl UnionBlocker {
    /// Builds a union from boxed blockers.
    pub fn new(blockers: Vec<Box<dyn Blocker + Send + Sync>>) -> Self {
        assert!(!blockers.is_empty(), "union of zero blockers");
        Self { blockers }
    }
}

impl Blocker for UnionBlocker {
    fn candidates(&self, left: &Table, right: &Table, mode: PairMode) -> CandidateSet {
        let mut acc: Option<CandidateSet> = None;
        for b in &self.blockers {
            let cs = b.candidates(left, right, mode);
            acc = Some(match acc {
                None => cs,
                Some(prev) => prev.union(&cs),
            });
        }
        acc.expect("at least one blocker")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroer_tabular::{Record, Schema, Value};
    use zeroer_textsim::derive::{DeriveConfig, Deriver};

    fn table(names: &[&str]) -> Table {
        let mut t = Table::new("t", Schema::new(["name"]));
        for (i, n) in names.iter().enumerate() {
            t.push(Record::new(i as u32, vec![Value::Str((*n).into())]));
        }
        t
    }

    #[test]
    fn cartesian_cross_counts() {
        let l = table(&["a", "b"]);
        let r = table(&["x", "y", "z"]);
        let cs = CartesianBlocker.candidates(&l, &r, PairMode::Cross);
        assert_eq!(cs.len(), 6);
    }

    #[test]
    fn cartesian_dedup_counts() {
        let t = table(&["a", "b", "c", "d"]);
        let cs = CartesianBlocker.candidates(&t, &t, PairMode::Dedup);
        assert_eq!(cs.len(), 6); // 4 choose 2
    }

    #[test]
    fn token_blocker_pairs_shared_words() {
        let l = table(&["deep learning systems", "database engines"]);
        let r = table(&["learning to rank", "graph engines", "unrelated title"]);
        let cs = TokenBlocker::new(0).candidates(&l, &r, PairMode::Cross);
        assert!(cs.contains(0, 0), "shares 'learning'");
        assert!(cs.contains(1, 1), "shares 'engines'");
        assert!(!cs.contains(0, 2));
    }

    #[test]
    fn token_blocker_dedup_mode() {
        let t = table(&["red apple", "green apple", "blue sky"]);
        let cs = TokenBlocker::new(0).candidates(&t, &t, PairMode::Dedup);
        assert!(cs.contains(0, 1));
        assert!(!cs.contains(0, 2));
    }

    #[test]
    fn qgram_blocker_survives_typos() {
        let l = table(&["photograph"]);
        let r = table(&["fotograph"]); // token blocking would miss this
        let tok = TokenBlocker::new(0).candidates(&l, &r, PairMode::Cross);
        assert!(tok.is_empty());
        let qg = QgramBlocker::new(0, 3).candidates(&l, &r, PairMode::Cross);
        assert!(qg.contains(0, 0));
    }

    #[test]
    fn attr_equivalence_requires_exact_normalized_match() {
        let l = table(&["New York", "Boston"]);
        let r = table(&["new-york", "chicago"]);
        let cs = AttrEquivalenceBlocker { attr: 0 }.candidates(&l, &r, PairMode::Cross);
        assert!(cs.contains(0, 0), "normalization maps both to 'new york'");
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn sorted_neighborhood_pairs_nearby_keys() {
        let l = table(&["aaa", "mmm", "zzz"]);
        let r = table(&["aab", "mmn", "zzy"]);
        let cs = SortedNeighborhood { attr: 0, window: 2 }.candidates(&l, &r, PairMode::Cross);
        assert!(cs.contains(0, 0));
        assert!(cs.contains(1, 1));
        assert!(cs.contains(2, 2));
        assert!(!cs.contains(0, 2));
    }

    #[test]
    fn union_boosts_recall() {
        let l = table(&["photograph", "database systems"]);
        let r = table(&["fotograph", "database engines"]);
        let union = UnionBlocker::new(vec![
            Box::new(TokenBlocker::new(0)),
            Box::new(QgramBlocker::new(0, 3)),
        ]);
        let cs = union.candidates(&l, &r, PairMode::Cross);
        assert!(cs.contains(0, 0), "qgram leg catches the typo");
        assert!(cs.contains(1, 1), "token leg catches the shared word");
    }

    #[test]
    fn overlap_floor_requires_multiple_shared_tokens() {
        let l = table(&[
            "efficient query processing systems",
            "graph mining at scale",
        ]);
        let r = table(&[
            "efficient query optimization", // shares 2 tokens with l0
            "parallel graph engines",       // shares 1 token with l1
        ]);
        let cs = TokenBlocker::with_overlap(0, 2).candidates(&l, &r, PairMode::Cross);
        assert!(cs.contains(0, 0), "two shared tokens pass");
        assert!(
            !cs.contains(1, 1),
            "one shared token is pruned at overlap 2"
        );
    }

    #[test]
    fn overlap_dedup_mode() {
        let t = table(&[
            "deep learning for entity matching",
            "deep learning for image search",
            "relational query engines",
        ]);
        let cs = TokenBlocker::with_overlap(0, 3).candidates(&t, &t, PairMode::Dedup);
        assert!(cs.contains(0, 1), "shares 'deep learning for'");
        assert!(!cs.contains(0, 2));
    }

    #[test]
    fn stop_word_buckets_are_skipped() {
        // Every record shares the token "the"; with a tiny bucket cap the
        // blocker must skip that bucket entirely.
        let names: Vec<String> = (0..30).map(|i| format!("the item{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let t = table(&refs);
        let cs = TokenBlocker {
            attr: 0,
            max_bucket: 5,
            min_overlap: 1,
        }
        .candidates(&t, &t, PairMode::Dedup);
        assert!(
            cs.is_empty(),
            "the 'the' bucket exceeds the cap and item tokens are unique"
        );
    }

    /// The derived-path recipe must equal the trait-path recipe.
    #[test]
    fn derived_candidates_match_trait_blockers() {
        let names = [
            "golden dragon palace",
            "golden dragon palce",
            "blue sky tavern",
            "photograph studio",
            "fotograph studio",
        ];
        let t = table(&names);
        let mut deriver = Deriver::new(DeriveConfig::blocking(0, 4));
        let derived: Vec<_> = t
            .records()
            .iter()
            .map(|r| deriver.derive(&r.values))
            .collect();
        for overlap in [1usize, 2] {
            let via_derived =
                standard_candidates_derived(&derived, None, PairMode::Dedup, overlap, 400);
            let via_trait = standard_recipe(0, overlap, 4, 400).candidates(&t, &t, PairMode::Dedup);
            assert_eq!(via_derived.pairs(), via_trait.pairs(), "overlap={overlap}");
        }
    }

    #[test]
    fn standard_rule_needs_two_keys_or_the_overlap_floor() {
        for overlap in [0, 1] {
            let rule = standard_rule(overlap);
            assert!(rule.qgram_leg);
            assert_eq!(rule.min_shared_keys, 2);
        }
        let rule = standard_rule(3);
        assert!(!rule.qgram_leg, "overlap blocking probes tokens only");
        assert_eq!(rule.min_shared_keys, 3);
    }

    #[test]
    fn one_shared_key_no_longer_makes_a_pair() {
        // The last two names share only the padded 4-gram "n###".
        let names = [
            "golden dragon palace",
            "golden dragon palce",
            "blue sky tavern",
            "rustic oak kitchen",
        ];
        let t = table(&names);
        let cs = standard_recipe(0, 1, 4, 400).candidates(&t, &t, PairMode::Dedup);
        assert_eq!(cs.pairs(), [(0, 1)]);
        let mut deriver = Deriver::new(DeriveConfig::blocking(0, 4));
        let derived: Vec<_> = t
            .records()
            .iter()
            .map(|r| deriver.derive(&r.values))
            .collect();
        let pruned = pruned_candidates_derived(&derived, None, PairMode::Dedup, 1, 400);
        assert!(pruned.contains(2, 3), "the one-key pair is pruned");
        assert!(!pruned.contains(0, 1), "a kept pair is not pruned");
    }
}
