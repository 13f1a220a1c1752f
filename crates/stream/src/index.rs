//! Incremental blocking indexes.
//!
//! Batch blocking (`zeroer_blocking::standard_candidates_derived`)
//! enumerates candidate pairs by probing complete inverted indexes.
//! Streaming ingest needs the *online* form of the same computation:
//! insert one record and get back the indices of previously inserted
//! records it is a candidate pair with, in one pass.
//!
//! [`IncrementalIndex`] mirrors the standard recipe the high-level
//! pipeline uses — word-token and character q-gram keys on one key
//! attribute, counted together, with a pair kept once its records share
//! at least two keys (`zeroer_blocking::standard_rule`) — and consumes
//! the *same* blocking keys the batch probe does: interned symbols
//! extracted by the record-derivation layer (`zeroer_textsim::derive`),
//! so batch and incremental candidate sets cannot drift apart. Buckets
//! are keyed by [`Sym`], not strings — no key text is duplicated into
//! the index.
//!
//! ## Counting
//!
//! Each insert or probe counts, per earlier record, the keys it shares
//! over both legs, in the stamp arrays of a caller-owned [`KeyCounts`]
//! (the idiom of the batch probe behind
//! `zeroer_blocking::standard_candidates_derived`). A record joins the
//! candidate list the moment its count reaches the rule's floor, and the
//! list is sorted at the end; one routine does this for the insert and
//! the probe.
//!
//! One index serves every streaming path. A pipeline holds one per
//! bootstrap table: dedup arrivals insert into theirs
//! ([`IncrementalIndex::insert_keys_live`]); linkage arrivals probe the
//! opposite side's ([`IncrementalIndex::probe_live`]) and are posted to
//! their own ([`IncrementalIndex::insert_keys_at`]). A candidate depends
//! only on the two records' key sets, so inserting a parallel batch in
//! ingest order on one writer is exact.
//!
//! ## Frequency cap
//!
//! The batch probe skips "stop word" buckets whose pair product exceeds
//! `max_bucket²` (for a self-join: buckets with more than `max_bucket`
//! members). Online, a bucket's final size is unknowable, so the cap is
//! applied at the crossing point: a bucket that would exceed `max_bucket`
//! members is permanently retired ("dead") and never pairs again. Inserts
//! *before* the crossing already paired through the bucket — those early
//! pairs are the one bounded divergence from batch semantics (at most
//! `max_bucket·(max_bucket−1)/2` extra pairs per hot key, and none on
//! datasets where no bucket overflows; see the parity tests).
//!
//! ## Retraction & compaction
//!
//! Records can be withdrawn after insertion (`EntityStore::retract`).
//! The index handles this with **tombstoned postings**: retraction marks
//! the record's posting dead in every bucket that holds it (a per-bucket
//! dead count, O(bucket) per key), and lookups filter members against
//! the caller's tombstone set — so a retracted record never appears as a
//! candidate again, and the frequency cap counts *live* members only.
//! The postings themselves stay in place until [`IncrementalIndex::
//! compact`] drops them, frees buckets that end up empty, removes
//! cap-retired `Dead` buckets, and reports the reclaimed bytes. Note that
//! dropping a `Dead` bucket lets its key pair again if it reappears — a
//! hot key simply re-retires once its *live* population crosses the cap,
//! which is exactly the state a fresh index over the surviving records
//! would reach.

use std::collections::HashMap;
use zeroer_blocking::standard_rule;
use zeroer_textsim::derive::{DeriveConfig, KeySet};
use zeroer_textsim::intern::Sym;

/// Configuration for [`IncrementalIndex`], mirroring the defaults of the
/// batch pipeline's blocking (`MatchOptions`).
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Attribute index used as the blocking key.
    pub attr: usize,
    /// q-gram size of the q-gram leg (0 disables the leg).
    pub qgram: usize,
    /// Stop-word bucket cap (see module docs).
    pub max_bucket: usize,
    /// The overlap floor of the standard rule
    /// (`zeroer_blocking::standard_rule`): a pair needs
    /// `max(min_token_overlap, 2)` shared keys. At 1 (the default) token
    /// and q-gram keys count together; values above 1 switch to overlap
    /// blocking on tokens alone and disable the q-gram leg, exactly like
    /// the batch `MatchOptions` recipe.
    pub min_token_overlap: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            attr: 0,
            qgram: 4,
            max_bucket: 400,
            min_token_overlap: 1,
        }
    }
}

impl IndexConfig {
    /// Whether the q-gram leg is active under this configuration.
    pub fn has_qgram_leg(&self) -> bool {
        standard_rule(self.min_token_overlap).qgram_leg && self.qgram > 0
    }

    /// The derivation configuration that extracts exactly the blocking
    /// keys this index consumes.
    pub fn derive_config(&self) -> DeriveConfig {
        let qgram = if self.has_qgram_leg() { self.qgram } else { 0 };
        DeriveConfig::blocking(self.attr, qgram)
    }
}

/// One inverted-index bucket: live members (some possibly tombstoned,
/// counted in `dead`), or retired after crossing the frequency cap.
#[derive(Debug, Clone)]
enum Bucket {
    Live {
        members: Vec<usize>,
        /// How many of `members` are tombstoned (marked by
        /// [`Leg::retract_key`], dropped by [`Leg::compact`]).
        dead: u32,
    },
    Dead,
}

/// Whether `idx` is tombstoned under the caller's tombstone set. Indices
/// beyond the set are live by definition; an empty slice means "no
/// retractions".
#[inline]
fn is_dead(tombstones: &[bool], idx: usize) -> bool {
    tombstones.get(idx).copied().unwrap_or(false)
}

/// Live/retired bucket counts of one blocking leg.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LegStats {
    /// Buckets still pairing.
    pub live: usize,
    /// Buckets retired by the frequency cap.
    pub retired: usize,
    /// Postings stored in live buckets (tombstoned ones included until
    /// compaction drops them).
    pub postings: usize,
    /// Postings marked dead by retraction and not yet compacted away.
    pub dead_postings: usize,
}

/// Bucket statistics of an incremental index, per leg.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// The word-token leg.
    pub token: LegStats,
    /// The q-gram leg (all zeros when disabled).
    pub qgram: LegStats,
}

impl IndexStats {
    /// Adds another index's counts (the linkage topology's two sides).
    pub(crate) fn absorb(&mut self, other: IndexStats) {
        for (mine, theirs) in [
            (&mut self.token, other.token),
            (&mut self.qgram, other.qgram),
        ] {
            mine.live += theirs.live;
            mine.retired += theirs.retired;
            mine.postings += theirs.postings;
            mine.dead_postings += theirs.dead_postings;
        }
    }

    /// Postings stored across both legs.
    pub fn postings(&self) -> usize {
        self.token.postings + self.qgram.postings
    }

    /// Dead (tombstoned, uncompacted) postings across both legs.
    pub fn dead_postings(&self) -> usize {
        self.token.dead_postings + self.qgram.dead_postings
    }

    /// Retired (cap-killed, uncompacted) buckets across both legs.
    pub fn retired_buckets(&self) -> usize {
        self.token.retired + self.qgram.retired
    }
}

/// What one compaction pass reclaimed (see [`IncrementalIndex::compact`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionDelta {
    /// Tombstoned postings dropped from live buckets.
    pub postings_dropped: usize,
    /// Buckets removed outright: emptied live buckets plus cap-retired
    /// `Dead` markers.
    pub buckets_freed: usize,
    /// Estimated bytes released (posting slots + bucket entries).
    pub bytes_reclaimed: usize,
}

impl CompactionDelta {
    pub(crate) fn absorb(&mut self, other: CompactionDelta) {
        self.postings_dropped += other.postings_dropped;
        self.buckets_freed += other.buckets_freed;
        self.bytes_reclaimed += other.bytes_reclaimed;
    }
}

/// One blocking leg: an inverted index with the frequency cap, keyed by
/// interned symbol.
#[derive(Debug, Clone)]
struct Leg {
    buckets: HashMap<Sym, Bucket>,
    max_bucket: usize,
    /// Postings stored in live buckets (dead-marked ones included).
    postings: usize,
    /// Postings marked dead and not yet compacted away.
    dead_postings: usize,
}

impl Leg {
    fn new(max_bucket: usize) -> Self {
        Self {
            buckets: HashMap::new(),
            max_bucket,
            postings: 0,
            dead_postings: 0,
        }
    }

    /// Posts record `idx` under `key` and returns the bucket's earlier
    /// members, tombstoned ones included: the one cap-crossing rule of
    /// every insert. A bucket whose live members would exceed the
    /// frequency cap is retired instead, since batch blocking never pairs
    /// through such a key; counting live members only retires it where a
    /// fresh index over the surviving records would. A retired bucket
    /// takes no posting and returns no member.
    fn insert_key(&mut self, idx: usize, key: Sym) -> &[usize] {
        let bucket = self.buckets.entry(key).or_insert_with(|| Bucket::Live {
            members: Vec::new(),
            dead: 0,
        });
        if let Bucket::Live { members, dead } = bucket {
            if members.len() - *dead as usize + 1 > self.max_bucket {
                self.postings -= members.len();
                self.dead_postings -= *dead as usize;
                *bucket = Bucket::Dead;
            }
        }
        match bucket {
            Bucket::Dead => &[],
            Bucket::Live { members, .. } => {
                members.push(idx);
                self.postings += 1;
                &members[..members.len() - 1]
            }
        }
    }

    /// The members under `key` (empty for a retired or unknown key),
    /// tombstoned ones included.
    fn members(&self, key: Sym) -> &[usize] {
        match self.buckets.get(&key) {
            Some(Bucket::Live { members, .. }) => members,
            _ => &[],
        }
    }

    /// Marks record `idx`'s posting under `key` dead (the posting stays
    /// until [`Leg::compact`]). Returns whether a posting was found —
    /// false when the bucket was already cap-retired at insert time.
    fn retract_key(&mut self, idx: usize, key: Sym) -> bool {
        match self.buckets.get_mut(&key) {
            Some(Bucket::Live { members, dead }) if members.contains(&idx) => {
                *dead += 1;
                self.dead_postings += 1;
                true
            }
            _ => false,
        }
    }

    /// Drops every tombstoned posting, frees buckets left empty, and
    /// removes cap-retired `Dead` markers. `tombstones` must be the same
    /// set the dead marks were made against.
    fn compact(&mut self, tombstones: &[bool]) -> CompactionDelta {
        let mut delta = CompactionDelta::default();
        self.buckets.retain(|_, bucket| match bucket {
            Bucket::Dead => {
                delta.buckets_freed += 1;
                false
            }
            Bucket::Live { members, dead } => {
                if *dead > 0 {
                    let before = members.len();
                    members.retain(|&m| !is_dead(tombstones, m));
                    delta.postings_dropped += before - members.len();
                    members.shrink_to_fit();
                    *dead = 0;
                }
                if members.is_empty() {
                    delta.buckets_freed += 1;
                    false
                } else {
                    true
                }
            }
        });
        self.postings -= delta.postings_dropped;
        self.dead_postings = 0;
        delta.bytes_reclaimed = delta.postings_dropped * std::mem::size_of::<usize>()
            + delta.buckets_freed * (std::mem::size_of::<Sym>() + std::mem::size_of::<Bucket>());
        delta
    }

    /// Live/retired bucket counts plus posting counters.
    fn stats(&self) -> LegStats {
        let mut s = LegStats {
            postings: self.postings,
            dead_postings: self.dead_postings,
            ..LegStats::default()
        };
        for b in self.buckets.values() {
            match b {
                Bucket::Live { .. } => s.live += 1,
                Bucket::Dead => s.retired += 1,
            }
        }
        s
    }
}

/// The shared-key counters of one caller of
/// [`IncrementalIndex::insert_keys_live`] or
/// [`IncrementalIndex::probe_live`]: a stamp and a count per indexed
/// record, reused across calls and across indexes.
///
/// Each call takes a fresh stamp, and a count whose stamp is older reads
/// as zero, so starting a call resets every count at once. Counting is
/// then one array access per bucket member, with no hashing and no
/// allocation once the arrays have grown to the largest index served.
/// The caller owns the counters (the pipeline writer one, each read
/// handle its own): an index is cloned into every published read view,
/// and clones must not carry them.
#[derive(Debug, Clone, Default)]
pub struct KeyCounts {
    /// `(stamp, shared keys)` per record index.
    slots: Vec<(u32, u32)>,
    /// The current call's stamp; 0 is never a live stamp.
    stamp: u32,
}

impl KeyCounts {
    /// Empty counters; they grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a call over records `0..bound` with every count at zero.
    fn begin(&mut self, bound: usize) {
        if self.slots.len() < bound {
            self.slots.resize(bound, (0, 0));
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill((0, 0));
            self.stamp = 1;
        }
    }

    /// Adds one shared key for every live record in `members`, pushing a
    /// record onto `candidates` when its count reaches `need`. The one
    /// counting rule of the insert and the probe — token and q-gram keys
    /// counted together, a record kept once it shares
    /// `zeroer_blocking::standard_rule`'s number of keys (two by default)
    /// — so their candidate semantics cannot drift from each other or
    /// from batch blocking.
    fn add(
        &mut self,
        members: &[usize],
        tombstones: &[bool],
        need: u32,
        candidates: &mut Vec<usize>,
    ) {
        for &m in members {
            if is_dead(tombstones, m) {
                continue;
            }
            let slot = &mut self.slots[m];
            if slot.0 != self.stamp {
                *slot = (self.stamp, 0);
            }
            slot.1 += 1;
            if slot.1 == need {
                candidates.push(m);
            }
        }
    }
}

/// Online inverted token + q-gram indexes over one key attribute: the
/// one streaming blocking index. `insert_keys` consumes a record's
/// derived blocking keys ([`KeySet`]) and returns blocking candidates
/// among previously inserted records: those sharing enough keys under the
/// standard rule.
#[derive(Debug, Clone)]
pub struct IncrementalIndex {
    cfg: IndexConfig,
    token_leg: Leg,
    qgram_leg: Option<Leg>,
    len: usize,
    /// One past the largest record index posted: the size [`KeyCounts`]
    /// must cover.
    bound: usize,
}

impl IncrementalIndex {
    /// An empty index.
    ///
    /// # Panics
    /// Panics if `min_token_overlap` or `max_bucket` is 0.
    pub fn new(cfg: IndexConfig) -> Self {
        assert!(cfg.min_token_overlap >= 1, "overlap must be at least 1");
        assert!(cfg.max_bucket >= 1, "max_bucket must be at least 1");
        let qgram_leg = if cfg.has_qgram_leg() {
            Some(Leg::new(cfg.max_bucket))
        } else {
            None
        };
        Self {
            token_leg: Leg::new(cfg.max_bucket),
            qgram_leg,
            len: 0,
            bound: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.cfg
    }

    /// Number of inserted records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Each active leg with the keys of `keys` it indexes.
    fn legs<'a>(&'a self, keys: &'a KeySet) -> impl Iterator<Item = (&'a Leg, &'a [Sym])> {
        let qgram = self.qgram_leg.iter().map(|leg| (leg, &keys.qgrams[..]));
        std::iter::once((&self.token_leg, &keys.tokens[..])).chain(qgram)
    }

    /// [`IncrementalIndex::legs`], mutably.
    fn legs_mut<'a>(
        &'a mut self,
        keys: &'a KeySet,
    ) -> impl Iterator<Item = (&'a mut Leg, &'a [Sym])> {
        let qgram = self.qgram_leg.iter_mut().map(|leg| (leg, &keys.qgrams[..]));
        std::iter::once((&mut self.token_leg, &keys.tokens[..])).chain(qgram)
    }

    /// Live/retired bucket counts per leg.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            token: self.token_leg.stats(),
            qgram: self.qgram_leg.as_ref().map(Leg::stats).unwrap_or_default(),
        }
    }

    /// `(postings, dead_postings)` across both legs — O(1) counters, no
    /// bucket scan; what the pipeline's auto-compaction watermark polls
    /// after every retraction.
    pub fn posting_counts(&self) -> (usize, usize) {
        std::iter::once(&self.token_leg)
            .chain(&self.qgram_leg)
            .fold((0, 0), |(p, d), leg| {
                (p + leg.postings, d + leg.dead_postings)
            })
    }

    /// The shared keys that make a candidate pair
    /// (`zeroer_blocking::standard_rule`).
    fn need(&self) -> u32 {
        let need = standard_rule(self.cfg.min_token_overlap).min_shared_keys;
        u32::try_from(need).unwrap_or(u32::MAX)
    }

    /// Inserts the next record's derived blocking keys (records must be
    /// inserted in store order: the i-th call describes record index i)
    /// and returns the sorted indices of previously inserted records
    /// sharing enough blocking keys with it (two by default), counted in
    /// `counts`.
    pub fn insert_keys(&mut self, keys: &KeySet, counts: &mut KeyCounts) -> Vec<usize> {
        self.insert_keys_live(keys, &[], counts)
    }

    /// [`IncrementalIndex::insert_keys`] with a tombstone filter:
    /// retracted records are skipped as candidates and excluded from the
    /// frequency cap. An empty slice means "no retractions".
    pub fn insert_keys_live(
        &mut self,
        keys: &KeySet,
        tombstones: &[bool],
        counts: &mut KeyCounts,
    ) -> Vec<usize> {
        let idx = self.len;
        self.len += 1;
        let need = self.need();
        counts.begin(self.bound);
        self.bound = self.bound.max(idx + 1);
        let mut candidates = Vec::new();
        for (leg, syms) in self.legs_mut(keys) {
            for &key in syms {
                counts.add(leg.insert_key(idx, key), tombstones, need, &mut candidates);
            }
        }
        candidates.sort_unstable();
        candidates
    }

    /// Read-only candidate lookup: the sorted indices of inserted records
    /// sharing enough blocking keys with `keys`, **without** inserting
    /// anything — the candidate rule (shared keys over both legs,
    /// tombstone filter) is exactly [`IncrementalIndex::insert_keys_live`]'s.
    ///
    /// This is how streaming record linkage blocks across tables: an
    /// incoming right-side record probes the *left* side's index for
    /// candidates (and is then posted to the right side's index via
    /// [`IncrementalIndex::insert_keys_at`], never to this one), and how
    /// a resolve finds candidates in a published read view. Probing takes
    /// `&self`, so any number of readers can probe one frozen index with
    /// no synchronization.
    pub fn probe_live(
        &self,
        keys: &KeySet,
        tombstones: &[bool],
        counts: &mut KeyCounts,
    ) -> Vec<usize> {
        let need = self.need();
        counts.begin(self.bound);
        let mut candidates = Vec::new();
        for (leg, syms) in self.legs(keys) {
            for &key in syms {
                counts.add(leg.members(key), tombstones, need, &mut candidates);
            }
        }
        candidates.sort_unstable();
        candidates
    }

    /// Posts a record's keys under an explicit record index, without
    /// candidate generation — the linkage path's write half, where the
    /// caller's record numbering (a store shared by both sides) is not
    /// this index's insertion count. Buckets apply the live-member
    /// frequency cap at the same crossing points as
    /// [`IncrementalIndex::insert_keys`].
    ///
    /// Unlike [`IncrementalIndex::insert_keys`], `idx` values need not be
    /// dense or contiguous here — each side's index holds only its own
    /// side's records out of the shared numbering.
    pub fn insert_keys_at(&mut self, idx: usize, keys: &KeySet) {
        for (leg, syms) in self.legs_mut(keys) {
            for &key in syms {
                leg.insert_key(idx, key);
            }
        }
        self.len += 1;
        self.bound = self.bound.max(idx + 1);
    }

    /// Marks record `idx`'s postings dead under its blocking keys (the
    /// same [`KeySet`] it was inserted with); the postings stay in place
    /// until [`IncrementalIndex::compact`]. Returns the number of postings
    /// tombstoned.
    pub fn retract_keys(&mut self, idx: usize, keys: &KeySet) -> usize {
        let mut marked = 0;
        for (leg, syms) in self.legs_mut(keys) {
            for &key in syms {
                marked += usize::from(leg.retract_key(idx, key));
            }
        }
        marked
    }

    /// Drops tombstoned postings, frees emptied buckets and cap-retired
    /// markers, and reports what was reclaimed. `tombstones` must be the
    /// set the retractions were recorded against.
    pub fn compact(&mut self, tombstones: &[bool]) -> CompactionDelta {
        let mut delta = self.token_leg.compact(tombstones);
        if let Some(qleg) = &mut self.qgram_leg {
            delta.absorb(qleg.compact(tombstones));
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroer_tabular::{Record, Value};
    use zeroer_textsim::derive::Deriver;

    /// Derives records through the shared derivation layer and feeds the
    /// keys to the index — the miniature of what `StreamPipeline` does.
    struct Harness {
        deriver: Deriver,
        index: IncrementalIndex,
        counts: KeyCounts,
    }

    impl Harness {
        fn new(cfg: IndexConfig) -> Self {
            Self {
                deriver: Deriver::new(cfg.derive_config()),
                index: IncrementalIndex::new(cfg),
                counts: KeyCounts::new(),
            }
        }

        fn insert(&mut self, record: &Record) -> Vec<usize> {
            let d = self.deriver.derive(&record.values);
            self.index.insert_keys(d.keys(), &mut self.counts)
        }

        fn insert_live(&mut self, name: &str, tombstones: &[bool]) -> Vec<usize> {
            let d = self.deriver.derive(&rec(0, name).values);
            self.index
                .insert_keys_live(d.keys(), tombstones, &mut self.counts)
        }
    }

    fn rec(i: u32, name: &str) -> Record {
        Record::new(i, vec![Value::Str(name.into())])
    }

    fn insert_all(h: &mut Harness, names: &[&str]) -> Vec<Vec<usize>> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| h.insert(&rec(i as u32, n)))
            .collect()
    }

    #[test]
    fn shared_tokens_become_candidates() {
        let mut h = Harness::new(IndexConfig {
            qgram: 0,
            ..Default::default()
        });
        let out = insert_all(
            &mut h,
            &["red apple pie", "green apple pie", "blue sky", "apple tart"],
        );
        assert_eq!(out[0], Vec::<usize>::new());
        assert_eq!(out[1], vec![0], "shares 'apple' and 'pie'");
        assert_eq!(out[2], Vec::<usize>::new());
        assert_eq!(
            out[3],
            Vec::<usize>::new(),
            "a single shared key ('apple') no longer makes a pair"
        );
    }

    #[test]
    fn qgram_leg_survives_typos() {
        let mut h = Harness::new(IndexConfig::default());
        let out = insert_all(&mut h, &["photograph", "fotograph"]);
        assert_eq!(out[1], vec![0], "no shared token, but shared q-grams");
    }

    #[test]
    fn overlap_mode_requires_multiple_shared_tokens() {
        let mut h = Harness::new(IndexConfig {
            min_token_overlap: 2,
            ..Default::default()
        });
        let out = insert_all(
            &mut h,
            &[
                "efficient query processing systems",
                "efficient query optimization",
                "parallel query engines",
            ],
        );
        assert_eq!(out[1], vec![0], "two shared tokens pass");
        assert_eq!(out[2], Vec::<usize>::new(), "one shared token is pruned");
    }

    #[test]
    fn null_key_is_never_a_candidate() {
        let mut h = Harness::new(IndexConfig::default());
        h.insert(&rec(0, "some title"));
        let got = h.insert(&Record::new(1, vec![Value::Null]));
        assert!(got.is_empty());
        let again = h.insert(&rec(2, "some title"));
        assert_eq!(again, vec![0], "null rows must not poison the index");
    }

    #[test]
    fn retracted_records_stop_being_candidates_and_compaction_reclaims() {
        let mut h = Harness::new(IndexConfig {
            qgram: 0,
            ..Default::default()
        });
        let out = insert_all(&mut h, &["red apple pie", "green apple pie"]);
        assert_eq!(out[1], vec![0]);

        // Retract record 0: mark its postings dead under its keys.
        let d = h.deriver.derive(&rec(0, "red apple pie").values);
        let marked = h.index.retract_keys(0, d.keys());
        assert_eq!(marked, 3, "'red', 'apple' and 'pie' postings tombstoned");
        let stats = h.index.stats();
        assert_eq!(stats.token.dead_postings, 3);
        assert_eq!(stats.token.postings, 6);

        // A new record sharing 'apple' and 'pie' sees only the live
        // record 1.
        let tombstones = [true, false];
        assert_eq!(h.insert_live("apple pie strudel", &tombstones), vec![1]);

        // Compaction drops the dead postings and frees the now-empty
        // 'red' bucket.
        let delta = h.index.compact(&tombstones);
        assert_eq!(delta.postings_dropped, 3);
        assert_eq!(delta.buckets_freed, 1, "'red' bucket emptied");
        assert!(delta.bytes_reclaimed > 0);
        let stats = h.index.stats();
        assert_eq!(stats.token.dead_postings, 0);
        assert_eq!(
            stats.token.postings, 6,
            "apple×2, pie×2, green×1, strudel×1"
        );
    }

    #[test]
    fn frequency_cap_counts_live_members_only() {
        let cfg = IndexConfig {
            qgram: 0,
            max_bucket: 2,
            ..Default::default()
        };
        let mut h = Harness::new(cfg);
        insert_all(&mut h, &["shared hot zero", "shared hot one"]);
        // Retract record 0; the 'shared' and 'hot' buckets hold
        // {0(dead), 1}.
        let d = h.deriver.derive(&rec(0, "shared hot zero").values);
        h.index.retract_keys(0, d.keys());

        // A third record would cross max_bucket=2 if dead members
        // counted; live-only counting keeps both buckets pairing.
        let tombstones = [true, false];
        assert_eq!(h.insert_live("shared hot two", &tombstones), vec![1]);
        assert_eq!(h.index.stats().token.retired, 0);
    }

    #[test]
    fn counts_from_before_a_stamp_wrap_are_forgotten() {
        let mut h = Harness::new(IndexConfig {
            qgram: 0,
            ..Default::default()
        });
        insert_all(&mut h, &["red apple pie", "green apple pie"]);
        // Record 0 holds one key counted under stamp 1, which the wrap
        // is about to reuse.
        h.counts.slots[0] = (1, 1);
        h.counts.stamp = u32::MAX;
        let d = h.deriver.derive(&rec(2, "apple tart").values);
        let got = h.index.probe_live(d.keys(), &[], &mut h.counts);
        assert_eq!(got, Vec::<usize>::new(), "one shared key each");
        assert_eq!(h.counts.stamp, 1);
    }

    #[test]
    fn overflowing_bucket_is_retired() {
        let cfg = IndexConfig {
            qgram: 0,
            max_bucket: 3,
            ..Default::default()
        };
        let mut h = Harness::new(cfg);
        // Every record shares the tokens "the" and "hot"; items are
        // unique.
        let names: Vec<String> = (0..6).map(|i| format!("the hot item{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let out = insert_all(&mut h, &refs);
        // First three inserts pair within the cap...
        assert_eq!(out[1], vec![0]);
        assert_eq!(out[2], vec![0, 1]);
        // ...the fourth would make both buckets exceed 3 members: retired.
        assert_eq!(out[3], Vec::<usize>::new());
        assert_eq!(out[4], Vec::<usize>::new());
        assert_eq!(out[5], Vec::<usize>::new());
        let stats = h.index.stats();
        assert_eq!(
            stats.token.retired, 2,
            "the 'the' and 'hot' buckets are retired"
        );
        assert_eq!(stats.token.live, 6, "one live bucket per unique item");
    }
}
