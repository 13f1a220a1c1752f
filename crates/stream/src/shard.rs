//! Key-space-sharded incremental blocking.
//!
//! [`ShardedIndex`] splits the blocking key-space — *not* the record
//! space — across `S` independent shards by a stable FNV-1a hash of the
//! key **text** (never the symbol id: symbol numbering depends on intern
//! order, text does not, so placement is identical across processes,
//! thread counts, and interner histories). Every shard holds the full
//! inverted-index machinery (`crate::index::Leg`) for the keys it
//! owns, so a bucket's lifetime (membership order, frequency-cap
//! retirement) is byte-identical to the unsharded
//! [`crate::IncrementalIndex`]: a key's bucket sees exactly the same
//! insert sequence no matter which shard owns it or how many shards
//! exist.
//!
//! ## Why this is exactly equivalent to the unsharded index
//!
//! Candidate generation counts, per member, the keys it shares with the
//! new record — token and q-gram keys together — and shared-key
//! counting is additive over disjoint key sets: each key lives in
//! exactly one shard, so summing per-shard counts per member reproduces
//! the unsharded count, and the final rule-and-sort merge
//! (`crate::index::merge_candidates`) is shared verbatim. The property
//! test in `tests/sharded.rs` asserts set equality against
//! [`crate::IncrementalIndex`] for arbitrary record streams and shard
//! counts.
//!
//! ## Parallel batch ingest
//!
//! [`ShardedIndex::insert_batch`] processes a whole batch with a worker
//! pool: keys are routed to their shards up front (by the hash memoized
//! in [`RecordKeys`]), each worker walks its shards' records *in batch
//! order* (preserving per-bucket insertion order), and the per-shard
//! partial results are then merged per record. Because shards share no
//! keys, no locks are needed — each worker mutates only its own shards.

use crate::index::{merge_candidates, CompactionDelta, IndexConfig, IndexStats, Leg};
use std::collections::HashMap;
use zeroer_textsim::derive::DerivedRecord;
use zeroer_textsim::intern::{fnv1a, Interner, Sym};

/// Default shard count for pipelines that do not choose one. Sixteen
/// shards keep per-shard skew low at every realistic `--threads` setting
/// while costing only a few empty hash maps when running sequentially.
/// The shard count never affects results (see the module docs), only
/// load balance.
pub const DEFAULT_SHARDS: usize = 16;

/// Stable 64-bit FNV-1a hash of a blocking key's text. Deliberately
/// *not* `DefaultHasher`: shard routing must be identical across
/// processes, platforms, and std versions so that index state rebuilt
/// elsewhere shards the same way.
#[inline]
pub fn stable_key_hash(key: &str) -> u64 {
    fnv1a(key)
}

/// Blocking keys of one record as `(symbol, text-hash)` pairs — the
/// symbol keys the index buckets use plus the stable text hash shard
/// routing uses, both pre-extracted so the expensive derivation happens
/// once no matter how many shards later consume them.
#[derive(Debug, Clone, Default)]
pub struct RecordKeys {
    token: Vec<(Sym, u64)>,
    qgram: Vec<(Sym, u64)>,
}

impl RecordKeys {
    /// Pairs a derived record's blocking keys with their memoized text
    /// hashes (empty when the key attribute was null — null rows never
    /// block). The record must have been derived against `interner`
    /// (committed, for scratch-derived records).
    pub fn from_derived(record: &DerivedRecord, interner: &Interner) -> Self {
        let keys = record.keys();
        Self {
            token: keys
                .tokens
                .iter()
                .map(|&s| (s, interner.text_hash(s)))
                .collect(),
            qgram: keys
                .qgrams
                .iter()
                .map(|&s| (s, interner.text_hash(s)))
                .collect(),
        }
    }

    /// The token-leg key symbols.
    pub fn token_syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.token.iter().map(|&(s, _)| s)
    }

    /// The q-gram-leg key symbols.
    pub fn qgram_syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.qgram.iter().map(|&(s, _)| s)
    }
}

/// One shard: the token and (optional) q-gram legs for the keys it owns.
#[derive(Debug, Clone)]
struct IndexShard {
    token_leg: Leg,
    qgram_leg: Option<Leg>,
}

/// Per-shard lookup partial produced by the batch phase for one record:
/// shared-key counts per member among the shard's keys, both legs in one
/// map.
type ShardPartial = HashMap<usize, usize>;

/// One record's `(token, qgram)` key symbols routed to a single shard.
type ShardJob = (Vec<Sym>, Vec<Sym>);

/// An [`crate::IncrementalIndex`] with its key-space split across
/// independent shards, enabling lock-free parallel candidate generation
/// while producing exactly the unsharded candidate sets.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    cfg: IndexConfig,
    shards: Vec<IndexShard>,
    len: usize,
}

impl ShardedIndex {
    /// An empty index with [`DEFAULT_SHARDS`] shards.
    ///
    /// # Panics
    /// Panics if `min_token_overlap` is 0.
    pub fn new(cfg: IndexConfig) -> Self {
        Self::with_shards(cfg, DEFAULT_SHARDS)
    }

    /// An empty index with an explicit shard count. The shard count
    /// affects load balance only, never results.
    ///
    /// # Panics
    /// Panics if `num_shards` is 0 or `min_token_overlap` is 0.
    pub fn with_shards(cfg: IndexConfig, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "at least one shard required");
        assert!(cfg.min_token_overlap >= 1, "overlap must be at least 1");
        let has_qgram = cfg.has_qgram_leg();
        let shards = (0..num_shards)
            .map(|_| IndexShard {
                token_leg: Leg::new(cfg.max_bucket),
                qgram_leg: if has_qgram {
                    Some(Leg::new(cfg.max_bucket))
                } else {
                    None
                },
            })
            .collect();
        Self {
            cfg,
            shards,
            len: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.cfg
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of inserted records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(postings, dead_postings)` across all shards and legs — cheap
    /// per-shard counters, no bucket scan; what the pipeline's
    /// auto-compaction watermark polls after every retraction.
    pub fn posting_counts(&self) -> (usize, usize) {
        let mut postings = 0;
        let mut dead = 0;
        for shard in &self.shards {
            let (p, d) = shard.token_leg.posting_counts();
            postings += p;
            dead += d;
            if let Some(qleg) = &shard.qgram_leg {
                let (p, d) = qleg.posting_counts();
                postings += p;
                dead += d;
            }
        }
        (postings, dead)
    }

    /// Live/retired bucket counts per leg, aggregated across shards.
    pub fn stats(&self) -> IndexStats {
        let mut stats = IndexStats::default();
        for shard in &self.shards {
            shard.token_leg.accumulate_stats(&mut stats.token);
            if let Some(qleg) = &shard.qgram_leg {
                qleg.accumulate_stats(&mut stats.qgram);
            }
        }
        stats
    }

    #[inline]
    fn shard_of(&self, text_hash: u64) -> usize {
        (text_hash % self.shards.len() as u64) as usize
    }

    /// Inserts the next record's keys (records must be inserted in store
    /// order) and returns the sorted indices of previously inserted
    /// records sharing enough blocking keys — the same contract as
    /// [`crate::IncrementalIndex::insert_keys`].
    pub fn insert_keys(&mut self, keys: RecordKeys) -> Vec<usize> {
        self.insert_keys_live(keys, &[])
    }

    /// [`ShardedIndex::insert_keys`] with a tombstone filter: retracted
    /// records are skipped as candidates and excluded from the frequency
    /// cap. An empty slice means "no retractions".
    pub fn insert_keys_live(&mut self, keys: RecordKeys, tombstones: &[bool]) -> Vec<usize> {
        let idx = self.len;
        self.len += 1;
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for (key, h) in keys.token {
            let s = self.shard_of(h);
            self.shards[s]
                .token_leg
                .insert_key(idx, key, &mut counts, tombstones);
        }
        for (key, h) in keys.qgram {
            let s = self.shard_of(h);
            if let Some(qleg) = &mut self.shards[s].qgram_leg {
                qleg.insert_key(idx, key, &mut counts, tombstones);
            }
        }
        merge_candidates(counts, self.cfg.min_token_overlap)
    }

    /// Read-only candidate lookup: the sorted indices of inserted records
    /// sharing enough blocking keys with `keys`, **without** inserting
    /// anything — the candidate rule (shared keys over both legs,
    /// tombstone filter) is exactly [`ShardedIndex::insert_keys_live`]'s.
    ///
    /// This is how streaming record linkage blocks across tables: an
    /// incoming right-side record probes the *left* side's index for
    /// candidates (and is then inserted into the right side's index via
    /// [`ShardedIndex::insert_keys_at`], never into this one). Because
    /// probing takes `&self`, a whole batch can probe one frozen index
    /// from many workers with no synchronization.
    pub fn probe_live(&self, keys: &RecordKeys, tombstones: &[bool]) -> Vec<usize> {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for &(key, h) in &keys.token {
            let s = self.shard_of(h);
            self.shards[s]
                .token_leg
                .lookup_key(key, &mut counts, tombstones);
        }
        for &(key, h) in &keys.qgram {
            let s = self.shard_of(h);
            if let Some(qleg) = &self.shards[s].qgram_leg {
                qleg.lookup_key(key, &mut counts, tombstones);
            }
        }
        merge_candidates(counts, self.cfg.min_token_overlap)
    }

    /// Inserts a record's postings under an explicit record index,
    /// without candidate generation — the linkage path's write half,
    /// where the caller's record numbering (a store shared by both
    /// sides) is not this index's insertion count. Buckets still apply
    /// the live-member frequency cap at the same crossing points.
    ///
    /// Unlike [`ShardedIndex::insert_keys`], `idx` values need not be
    /// dense or contiguous here — each side's index holds only its own
    /// side's records out of the shared numbering.
    pub fn insert_keys_at(&mut self, idx: usize, keys: &RecordKeys) {
        for &(key, h) in &keys.token {
            let s = self.shard_of(h);
            self.shards[s].token_leg.insert_key_silent(idx, key);
        }
        for &(key, h) in &keys.qgram {
            let s = self.shard_of(h);
            if let Some(qleg) = &mut self.shards[s].qgram_leg {
                qleg.insert_key_silent(idx, key);
            }
        }
        self.len += 1;
    }

    /// Marks record `idx`'s postings dead under its blocking keys,
    /// routing each key to its owning shard; postings stay in place until
    /// [`ShardedIndex::compact`]. Returns the number of postings
    /// tombstoned.
    pub fn retract_keys(&mut self, idx: usize, keys: &RecordKeys) -> usize {
        let mut marked = 0;
        for &(key, h) in &keys.token {
            let s = self.shard_of(h);
            marked += usize::from(self.shards[s].token_leg.retract_key(idx, key));
        }
        for &(key, h) in &keys.qgram {
            let s = self.shard_of(h);
            if let Some(qleg) = &mut self.shards[s].qgram_leg {
                marked += usize::from(qleg.retract_key(idx, key));
            }
        }
        marked
    }

    /// Compacts every shard: drops tombstoned postings, frees emptied
    /// buckets and cap-retired markers, and reports the aggregate
    /// reclaim. `tombstones` must be the set the retractions were
    /// recorded against.
    pub fn compact(&mut self, tombstones: &[bool]) -> CompactionDelta {
        let mut delta = CompactionDelta::default();
        for shard in &mut self.shards {
            delta.absorb(shard.token_leg.compact(tombstones));
            if let Some(qleg) = &mut shard.qgram_leg {
                delta.absorb(qleg.compact(tombstones));
            }
        }
        delta
    }

    /// Inserts a whole batch across a pool of `threads` workers and
    /// returns each record's candidate list — element `i` is exactly what
    /// [`ShardedIndex::insert_keys`] would have returned for record `i`
    /// inserted sequentially (candidates may point at earlier records of
    /// the same batch).
    pub fn insert_batch(&mut self, keys: Vec<RecordKeys>, threads: usize) -> Vec<Vec<usize>> {
        self.insert_batch_live(keys, threads, &[])
    }

    /// [`ShardedIndex::insert_batch`] with a tombstone filter, applied
    /// identically by every worker — the tombstone set is frozen for the
    /// whole batch (retraction needs `&mut self`), so candidate lists are
    /// bit-identical at any thread count.
    pub fn insert_batch_live(
        &mut self,
        keys: Vec<RecordKeys>,
        threads: usize,
        tombstones: &[bool],
    ) -> Vec<Vec<usize>> {
        let threads = threads.max(1);
        if threads == 1 || keys.len() < 2 {
            return keys
                .into_iter()
                .map(|k| self.insert_keys_live(k, tombstones))
                .collect();
        }
        let n = keys.len();
        let base = self.len;
        let ns = self.shards.len();

        // Route every key symbol to its owning shard. Per shard, a
        // *sparse* record-ordered job list — a record appears only in
        // shards that own at least one of its keys, so memory stays
        // proportional to the key count, not to shards × batch size.
        // Record order is preserved because keys are drained record by
        // record.
        let mut jobs: Vec<Vec<(usize, ShardJob)>> = (0..ns).map(|_| Vec::new()).collect();
        for (i, rk) in keys.into_iter().enumerate() {
            for (key, h) in rk.token {
                let shard_jobs = &mut jobs[(h % ns as u64) as usize];
                match shard_jobs.last_mut() {
                    Some((rec, job)) if *rec == i => job.0.push(key),
                    _ => shard_jobs.push((i, (vec![key], Vec::new()))),
                }
            }
            for (key, h) in rk.qgram {
                let shard_jobs = &mut jobs[(h % ns as u64) as usize];
                match shard_jobs.last_mut() {
                    Some((rec, job)) if *rec == i => job.1.push(key),
                    _ => shard_jobs.push((i, (Vec::new(), vec![key]))),
                }
            }
        }

        // Each worker owns a contiguous run of shards and walks the batch
        // in record order, so every bucket sees inserts in exactly the
        // sequential order. partials[s] = shard s's sparse, record-
        // ordered lookup results.
        let per = ns.div_ceil(threads);
        let mut job_chunks: Vec<Vec<Vec<(usize, ShardJob)>>> = Vec::new();
        {
            let mut it = jobs.into_iter();
            loop {
                let chunk: Vec<_> = it.by_ref().take(per).collect();
                if chunk.is_empty() {
                    break;
                }
                job_chunks.push(chunk);
            }
        }
        let mut partials: Vec<Vec<(usize, ShardPartial)>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .chunks_mut(per)
                .zip(job_chunks)
                .map(|(shard_chunk, chunk_jobs)| {
                    scope.spawn(move |_| {
                        let mut chunk_partials: Vec<Vec<(usize, ShardPartial)>> = Vec::new();
                        for (shard, shard_jobs) in shard_chunk.iter_mut().zip(chunk_jobs) {
                            let mut out: Vec<(usize, ShardPartial)> =
                                Vec::with_capacity(shard_jobs.len());
                            for (i, (token, qgram)) in shard_jobs {
                                let idx = base + i;
                                let mut counts = HashMap::new();
                                shard.token_leg.lookup_and_insert(
                                    idx,
                                    token,
                                    &mut counts,
                                    tombstones,
                                );
                                if let Some(qleg) = &mut shard.qgram_leg {
                                    qleg.lookup_and_insert(idx, qgram, &mut counts, tombstones);
                                }
                                out.push((i, counts));
                            }
                            chunk_partials.push(out);
                        }
                        chunk_partials
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
        .expect("shard scope panicked");

        // Merge with one cursor per shard (each partial list is sorted
        // by record): shared-key counts are additive across shards (each
        // key lives in exactly one); the shared merge_candidates rule
        // finishes the job.
        self.len += n;
        let mut results = Vec::with_capacity(n);
        let mut cursors = vec![0usize; partials.len()];
        for i in 0..n {
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for (shard_partials, cursor) in partials.iter_mut().zip(&mut cursors) {
                if *cursor >= shard_partials.len() || shard_partials[*cursor].0 != i {
                    continue;
                }
                let (_, partial) = std::mem::take(&mut shard_partials[*cursor]);
                *cursor += 1;
                if counts.is_empty() {
                    counts = partial;
                } else {
                    for (m, c) in partial {
                        *counts.entry(m).or_insert(0) += c;
                    }
                }
            }
            results.push(merge_candidates(counts, self.cfg.min_token_overlap));
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IncrementalIndex;
    use zeroer_tabular::{Record, Value};
    use zeroer_textsim::derive::Deriver;

    fn rec(i: u32, name: &str) -> Record {
        Record::new(i, vec![Value::Str(name.into())])
    }

    fn keys_of(deriver: &mut Deriver, r: &Record) -> RecordKeys {
        let d = deriver.derive(&r.values);
        RecordKeys::from_derived(&d, deriver.interner())
    }

    const NAMES: &[&str] = &[
        "red apple pie",
        "green apple tart",
        "blue sky photograph",
        "fotograph of the sky",
        "red apple pie",
        "completely unrelated",
    ];

    #[test]
    fn matches_unsharded_record_by_record() {
        for shards in [1, 2, 3, 7, 16] {
            let cfg = IndexConfig::default();
            let mut deriver = Deriver::new(cfg.derive_config());
            let mut sharded = ShardedIndex::with_shards(cfg.clone(), shards);
            let mut flat = IncrementalIndex::new(cfg);
            for (i, name) in NAMES.iter().enumerate() {
                let keys = keys_of(&mut deriver, &rec(i as u32, name));
                assert_eq!(
                    sharded.insert_keys(keys.clone()),
                    flat.insert_keys(&keys),
                    "shards={shards} record={i}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_sequential_inserts() {
        for threads in [1, 2, 4] {
            let cfg = IndexConfig::default();
            let mut deriver = Deriver::new(cfg.derive_config());
            let all_keys: Vec<RecordKeys> = NAMES
                .iter()
                .enumerate()
                .map(|(i, n)| keys_of(&mut deriver, &rec(i as u32, n)))
                .collect();

            let mut seq = ShardedIndex::with_shards(cfg.clone(), 4);
            let expected: Vec<Vec<usize>> = all_keys
                .iter()
                .map(|k| seq.insert_keys(k.clone()))
                .collect();

            let mut batch = ShardedIndex::with_shards(cfg.clone(), 4);
            let got = batch.insert_batch(all_keys, threads);
            assert_eq!(got, expected, "threads={threads}");
            assert_eq!(batch.len(), seq.len());
        }
    }

    #[test]
    fn batch_continues_an_existing_index() {
        let cfg = IndexConfig::default();
        let mut deriver = Deriver::new(cfg.derive_config());
        let all_keys: Vec<RecordKeys> = NAMES
            .iter()
            .enumerate()
            .map(|(i, n)| keys_of(&mut deriver, &rec(i as u32, n)))
            .collect();
        let mut seq = ShardedIndex::with_shards(cfg.clone(), 4);
        let mut batch = ShardedIndex::with_shards(cfg.clone(), 4);
        for k in all_keys.iter().take(3) {
            seq.insert_keys(k.clone());
            batch.insert_keys(k.clone());
        }
        let tail: Vec<Vec<usize>> = all_keys
            .iter()
            .skip(3)
            .map(|k| seq.insert_keys(k.clone()))
            .collect();
        assert_eq!(
            batch.insert_batch(all_keys[3..].to_vec(), 2),
            tail,
            "batch continuation must match sequential"
        );
    }

    #[test]
    fn overlap_counts_survive_sharding() {
        // min_token_overlap = 2 with the two shared tokens hashed into
        // (potentially) different shards: counts must sum across shards.
        let cfg = IndexConfig {
            min_token_overlap: 2,
            ..Default::default()
        };
        for shards in [1, 2, 8] {
            let mut deriver = Deriver::new(cfg.derive_config());
            let mut idx = ShardedIndex::with_shards(cfg.clone(), shards);
            idx.insert_keys(keys_of(&mut deriver, &rec(0, "efficient query processing")));
            let got = idx.insert_keys(keys_of(
                &mut deriver,
                &rec(1, "efficient query optimization"),
            ));
            assert_eq!(got, vec![0], "shards={shards}");
            let none = idx.insert_keys(keys_of(&mut deriver, &rec(2, "parallel engines")));
            assert!(none.is_empty(), "shards={shards}");
        }
    }

    #[test]
    fn retraction_and_compaction_match_the_unsharded_index() {
        for shards in [1, 3, 16] {
            let cfg = IndexConfig::default();
            let mut deriver = Deriver::new(cfg.derive_config());
            let mut sharded = ShardedIndex::with_shards(cfg.clone(), shards);
            let mut flat = IncrementalIndex::new(cfg);
            let all_keys: Vec<RecordKeys> = NAMES
                .iter()
                .enumerate()
                .map(|(i, n)| keys_of(&mut deriver, &rec(i as u32, n)))
                .collect();
            let mut tombstones = vec![false; NAMES.len() + 1];
            for k in &all_keys {
                sharded.insert_keys_live(k.clone(), &tombstones);
                flat.insert_keys_live(k, &tombstones);
            }
            // Retract record 0 ("red apple pie") in both.
            tombstones[0] = true;
            assert_eq!(
                sharded.retract_keys(0, &all_keys[0]),
                flat.retract_keys(0, &all_keys[0]),
                "shards={shards}"
            );
            // An exact copy of record 0 must now only see record 1
            // (shared 'apple') and record 4 (the other copy).
            let probe = keys_of(&mut deriver, &rec(9, "red apple pie"));
            assert_eq!(
                sharded.insert_keys_live(probe.clone(), &tombstones),
                flat.insert_keys_live(&probe, &tombstones),
                "shards={shards}"
            );
            // Compaction reclaims the same postings either way.
            let s = sharded.compact(&tombstones);
            let f = flat.compact(&tombstones);
            assert_eq!(s.postings_dropped, f.postings_dropped, "shards={shards}");
            assert_eq!(s.buckets_freed, f.buckets_freed, "shards={shards}");
            assert_eq!(
                sharded.stats().dead_postings(),
                0,
                "shards={shards}: compaction clears every dead posting"
            );
        }
    }

    #[test]
    fn stable_hash_is_stable() {
        // Pinned values: shard routing must never change across builds,
        // or persisted pipelines would re-shard on upgrade.
        assert_eq!(stable_key_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_key_hash("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
