//! The standard blocking recipe.
//!
//! Blocking reads the interned keys ([`zeroer_textsim::intern::Sym`]) a
//! record derivation already carries, so nothing is tokenized twice:
//! callers derive each table once (`DeriveConfig::blocking`) and block
//! on that derivation. Each key leg (tokens, q-grams) gets compressed
//! postings: one offset array indexed by the symbol's dense index and
//! one array of member records, ascending. Blocking is then a
//! per-record probe: each left record walks the buckets of its own
//! keys, skips stop-word buckets, marks its partners in a stamp array
//! while counting the keys they share, and appends them sorted. The
//! pairs come out normalized, unique and sorted, so nothing is hashed.
//!
//! The recipe ([`standard_candidates_derived`] here, the streaming
//! indexes of `zeroer-stream`) keeps a pair only when its two records
//! share at least two blocking keys, token and q-gram keys counted
//! together ([`standard_rule`]). This is the pair-local edge-weight
//! pruning of Papadakis et al., *Meta-Blocking* (TKDE 2014), with the
//! shared-key count as the edge weight: it drops the pairs whose only
//! link is one common key (often a padded boundary q-gram such as
//! `###g`), and since it reads only the two records' key sets, a pair's
//! fate never depends on the rest of the table.

use crate::candidate::{CandidateSet, PairMode};
use zeroer_textsim::derive::{DerivedRecord, KeySet};
use zeroer_textsim::intern::Sym;

/// Selects one key leg of a record's [`KeySet`]: its token keys or its
/// q-gram keys.
type Leg = fn(&KeySet) -> &[Sym];

fn token_keys(k: &KeySet) -> &[Sym] {
    &k.tokens
}

fn qgram_keys(k: &KeySet) -> &[Sym] {
    &k.qgrams
}

/// Compressed postings of one key leg: the records holding key `k` are
/// `members[offsets[k]..offsets[k + 1]]`, ascending. Keys are interner
/// symbols, so the largest one bounds the offset array.
struct Postings {
    offsets: Vec<usize>,
    members: Vec<u32>,
}

impl Postings {
    fn build(records: &[DerivedRecord], leg: Leg) -> Self {
        let keys = || records.iter().map(|r| leg(r.keys()));
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
/// caller: [`standard_candidates_derived`] and the streaming indexes of
/// `zeroer-stream`. A pair needs `max(min_token_overlap, 2)` shared
/// keys. With `min_token_overlap ≤ 1` (the default) both legs are probed
/// and a shared token and a shared q-gram count alike; with
/// `min_token_overlap ≥ 2` only the token leg is probed, which is
/// overlap blocking.
pub fn standard_rule(min_token_overlap: usize) -> KeyRule {
    KeyRule {
        qgram_leg: min_token_overlap <= 1,
        min_shared_keys: min_token_overlap.max(2),
    }
}

/// The blocking core: probes each left record's keys of every leg `rule`
/// probes against the right postings (the left ones for a self-join,
/// `right = None`) and keeps the partners sharing at least `need` keys
/// over those legs together (at least one when `need ≤ 1`).
///
/// A key whose bucket product `|L_k|·|R_k|` exceeds `max_bucket²` is a
/// stop word and is skipped. In [`PairMode::Dedup`] a left record `l`
/// pairs only with right records `r > l`. Partners are marked in a
/// stamp array while their shared keys are counted, then sorted, so the
/// pairs come out normalized, unique and sorted without hashing.
fn probe(
    left: &[DerivedRecord],
    right: Option<&[DerivedRecord]>,
    mode: PairMode,
    rule: KeyRule,
    max_bucket: usize,
    need: usize,
) -> CandidateSet {
    let right_len = right.map_or(left.len(), <[DerivedRecord]>::len);
    assert!(
        left.len().max(right_len) < u32::MAX as usize,
        "blocking indexes records by u32"
    );
    let legs = rule.legs();
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
            for &k in leg(rec.keys()) {
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

/// The standard blocking recipe over an existing derivation: the pairs
/// whose records share at least [`standard_rule`]'s number of blocking
/// keys — two by default, token and q-gram keys counted together, or
/// `min_overlap` shared tokens for `min_overlap ≥ 2`. Pass
/// `right = None` to block one derivation against itself.
///
/// The derivations must carry blocking keys (derive with
/// `DeriveConfig::blocking(attr, q)`, `q > 0` when `min_overlap ≤ 1`).
pub fn standard_candidates_derived(
    left: &[DerivedRecord],
    right: Option<&[DerivedRecord]>,
    mode: PairMode,
    min_overlap: usize,
    max_bucket: usize,
) -> CandidateSet {
    let rule = standard_rule(min_overlap);
    probe(left, right, mode, rule, max_bucket, rule.min_shared_keys)
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
    let kept = probe(left, right, mode, rule, max_bucket, rule.min_shared_keys);
    let any = probe(left, right, mode, rule, max_bucket, 1);
    let pruned = any
        .pairs()
        .iter()
        .filter(|p| kept.pairs().binary_search(p).is_err())
        .copied()
        .collect();
    CandidateSet::from_sorted(mode, pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroer_tabular::Value;
    use zeroer_textsim::derive::{DeriveConfig, Deriver};

    /// Derives one-attribute records with token and `q`-gram keys,
    /// against one interner.
    fn derive(deriver: &mut Deriver, names: &[&str]) -> Vec<DerivedRecord> {
        names
            .iter()
            .map(|&n| deriver.derive(&[Value::Str(n.into())]))
            .collect()
    }

    /// One table blocked against itself at `overlap`, 4-gram keys.
    fn dedup(names: &[&str], overlap: usize, cap: usize) -> CandidateSet {
        let d = derive(&mut Deriver::new(DeriveConfig::blocking(0, 4)), names);
        standard_candidates_derived(&d, None, PairMode::Dedup, overlap, cap)
    }

    /// Two tables blocked across at `overlap`, 4-gram keys.
    fn cross(left: &[&str], right: &[&str], overlap: usize) -> CandidateSet {
        let mut deriver = Deriver::new(DeriveConfig::blocking(0, 4));
        let (l, r) = (derive(&mut deriver, left), derive(&mut deriver, right));
        standard_candidates_derived(&l, Some(&r), PairMode::Cross, overlap, 400)
    }

    #[test]
    fn overlap_floor_requires_multiple_shared_tokens() {
        let cs = cross(
            &[
                "efficient query processing systems",
                "graph mining at scale",
            ],
            &[
                "efficient query optimization", // shares 2 tokens with l0
                "parallel graph engines",       // shares 1 token with l1
            ],
            2,
        );
        assert!(cs.contains(0, 0), "two shared tokens pass");
        assert!(
            !cs.contains(1, 1),
            "one shared token is pruned at overlap 2"
        );
    }

    #[test]
    fn overlap_dedup_mode() {
        let names = [
            "deep learning for entity matching",
            "deep learning for image search",
            "relational query engines",
        ];
        let cs = dedup(&names, 3, 400);
        assert!(cs.contains(0, 1), "shares 'deep learning for'");
        assert!(!cs.contains(0, 2));
    }

    #[test]
    fn stop_word_buckets_are_skipped() {
        // Every record shares the tokens "the" and "hot", so every pair
        // meets the two-key rule until a tiny bucket cap skips both
        // buckets; the item tokens are unique.
        let names: Vec<String> = (0..30).map(|i| format!("the hot item{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut deriver = Deriver::new(DeriveConfig::blocking(0, 0));
        let d = derive(&mut deriver, &refs);
        let uncapped = standard_candidates_derived(&d, None, PairMode::Dedup, 1, 400);
        assert_eq!(uncapped.len(), 30 * 29 / 2, "two hot tokens pair everyone");
        let capped = standard_candidates_derived(&d, None, PairMode::Dedup, 1, 5);
        assert!(
            capped.is_empty(),
            "the 'the' and 'hot' buckets exceed the cap"
        );
    }

    #[test]
    fn qgram_leg_joins_a_typo() {
        let (l, r) = (["photograph"], ["fotograph"]);
        assert!(cross(&l, &r, 1).contains(0, 0), "shared 4-grams pair them");
        assert!(cross(&l, &r, 2).is_empty(), "no shared token");
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
        let d = derive(&mut Deriver::new(DeriveConfig::blocking(0, 4)), &names);
        let cs = standard_candidates_derived(&d, None, PairMode::Dedup, 1, 400);
        assert_eq!(cs.pairs(), [(0, 1)]);
        let pruned = pruned_candidates_derived(&d, None, PairMode::Dedup, 1, 400);
        assert!(pruned.contains(2, 3), "the one-key pair is pruned");
        assert!(!pruned.contains(0, 1), "a kept pair is not pruned");
    }
}
