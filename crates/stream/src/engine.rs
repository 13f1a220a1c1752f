//! The streaming pipeline, written once for both topologies.
//! Deduplication is record linkage with `T = T'` (§5 of the paper), so
//! [`crate::StreamPipeline`] and [`crate::LinkPipeline`] are one
//! [`Pipeline`] over a [`Topology`]. The store, the frozen scorer, the
//! drift monitor, the snapshot and every operation on them are shared;
//! the topology decides which index an arriving record probes and which
//! it joins, names the bootstrap tables and supplies the fit recipe over
//! the live records. The pipeline is generic over the topology, so the
//! dedup hot path is monomorphized: its routing tag is `()`, so it
//! stores no per-record side tag, and nothing is dispatched dynamically.

use crate::drift::{DriftMonitor, DriftSample};
use crate::index::{CompactionDelta, IncrementalIndex, IndexStats, KeyCounts};
use crate::link::Side;
use crate::meters::StageMeters;
use crate::pipeline::{
    CompactionReport, IngestOutcome, RefreshReport, RetractionReport, StreamError, StreamOptions,
    StreamStats,
};
use crate::snapshot::{BaseTable, PipelineSnapshot, SnapshotModel};
use crate::split::{ReadHandle, ReadView};
use crate::store::EntityStore;
use std::sync::Mutex;
use zeroer_core::{ScoreBatch, SnapshotScorer};
use zeroer_features::{BatchFeaturizer, FillScratch};
use zeroer_obs::{Histogram, Stopwatch};
use zeroer_tabular::{Record, Table};
use zeroer_textsim::derive::{DerivedRecord, KeySet};
use zeroer_textsim::intern::Interner;

/// Scores `candidates` against the new record's derivation, returning the
/// `(candidate, posterior)` pairs above `threshold`, sorted by descending
/// posterior (stable, so ties keep ascending candidate order).
///
/// Some similarity measures are asymmetric, so orientation matters: rows
/// are `(candidate, new)` — the dedup `(older, newer)` convention, and
/// linkage's `(left, right)` for a right-side arrival — unless
/// `new_on_left` flips them to `(new, candidate)` for a left-side one.
///
/// The candidate list is filled column-major into `batch`
/// ([`BatchFeaturizer::fill_columns`], its fill and kernel buffers and
/// memo in `scratch`) and scored column-wise
/// ([`SnapshotScorer::score_batch`]), which runs the float operations of
/// the row-at-a-time oracle (`raw_row_into` + `score_raw`) in the same
/// order — bit-identical, as `tests/batched_parity.rs` checks. Every
/// ingest path and every resolve calls this one function on identical
/// inputs, which is what makes them bit-identical to each other.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_candidates<'a, F>(
    featurizer: &BatchFeaturizer,
    scorer: &SnapshotScorer,
    interner: &Interner,
    threshold: f64,
    new_on_left: bool,
    candidates: &[usize],
    derived_of: F,
    new_derived: &'a DerivedRecord,
    batch: &mut ScoreBatch,
    scratch: &mut FillScratch,
    batch_meter: Option<&'static Histogram>,
) -> Vec<(usize, f64)>
where
    F: Fn(usize) -> &'a DerivedRecord,
{
    if let Some(h) = batch_meter {
        h.record(candidates.len() as u64);
    }
    let mut matches: Vec<(usize, f64)> = Vec::new();
    if !candidates.is_empty() {
        featurizer.fill_columns(
            scratch,
            interner,
            candidates.len(),
            |i| {
                let c = derived_of(candidates[i]);
                if new_on_left {
                    (new_derived, c)
                } else {
                    (c, new_derived)
                }
            },
            batch.cols_mut(),
        );
        let scores = scorer.score_batch(batch);
        for (&c, &p) in candidates.iter().zip(scores) {
            if p > threshold {
                matches.push((c, p));
            }
        }
    }
    matches.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite posteriors"));
    matches
}

pub(crate) mod sealed {
    /// Keeps [`super::Topology`] implemented by this crate alone.
    pub trait Sealed {}
}

/// What differs between the two kinds of streaming pipeline:
/// [`crate::Dedup`] or [`crate::Linkage`]. A topology routes each
/// arriving record between the blocking indexes (one per bootstrap
/// table), names the bootstrap tables and supplies the fit recipe;
/// [`Pipeline`] writes every operation on them once. Sealed: only this
/// crate implements it.
pub trait Topology: sealed::Sealed + Sized + Send + Sync + 'static {
    /// What routes an arriving record: `()` for dedup, its [`Side`] for
    /// linkage.
    type Tag: Copy + PartialEq + Send + Sync + 'static;
    /// The snapshot kind the pipeline saves and restores from (see
    /// [`SnapshotModel::kind`]).
    const KIND: &'static str;
    /// Metric-name prefix of the pipeline (`stream` or `link`).
    const METRICS: &'static str;
    /// The bootstrap tables in seeding order, each with the name errors
    /// give it and the tag its records carry. Table `k` owns blocking
    /// index `k`.
    const TABLES: &'static [(&'static str, Self::Tag)];

    /// The tag for a request's optional side: dedup takes none, linkage
    /// requires one.
    ///
    /// # Errors
    /// Fails when the side's presence does not fit the topology.
    fn tag(side: Option<Side>) -> Result<Self::Tag, StreamError>;
    /// Whether an arriving record sits on the left of its scored rows.
    fn new_on_left(tag: Self::Tag) -> bool;
    /// The index a `tag` arrival probes and the one it joins. They are
    /// equal exactly when arrivals can match each other.
    fn route(tag: Self::Tag) -> (usize, usize);
    /// The fit recipe over `pipeline`'s live records: the new frozen
    /// model, with the fit's `records`, `pairs` and `em_iterations`.
    ///
    /// # Errors
    /// Fails like [`Pipeline::refit`].
    fn fit_live(pipeline: &Pipeline<Self>) -> Result<(SnapshotModel, RefreshReport), StreamError>;
}

/// Fails when `record` does not have the schema's `arity`.
pub(crate) fn check_arity(record: &Record, arity: usize) -> Result<(), StreamError> {
    if record.values.len() == arity {
        return Ok(());
    }
    Err(StreamError(format!(
        "record arity {} does not match schema arity {arity}",
        record.values.len()
    )))
}

/// One record's matches and drift sample, from a scoring worker.
type ScoredRecord = (Vec<(usize, f64)>, Option<DriftSample>);

/// A run of scoring slots for a worker, with its first record's offset.
type ScoreJob<'m> = (usize, &'m mut [ScoredRecord]);

/// Incremental entity resolution on a frozen, batch-fitted model:
/// ingest records, find their candidates through incremental blocking
/// indexes, score them with snapshot inference (no EM), and keep entity
/// clusters transitively in a union-find. Records can be withdrawn
/// again: tombstones hide them from candidates, the match-decision log
/// rebuilds the affected component's clusters, and online compaction
/// reclaims the dead index postings.
///
/// `T` is the [`Topology`]: [`crate::StreamPipeline`] deduplicates one
/// table, [`crate::LinkPipeline`] links two. Each alias adds only its
/// bootstrap, its `seed_base` and its side-tagged ingest.
pub struct Pipeline<T: Topology> {
    pub(crate) opts: StreamOptions,
    pub(crate) store: EntityStore,
    /// The blocking indexes, one per table of [`Topology::TABLES`].
    indexes: Vec<IncrementalIndex>,
    /// The tag each stored record arrived under, indexed like the store.
    /// Dedup's tag is `()`, so its `Vec<()>` stores and allocates nothing.
    pub(crate) tags: Vec<T::Tag>,
    pub(crate) featurizer: BatchFeaturizer,
    /// Scores with the scoring model of `model`.
    scorer: SnapshotScorer,
    /// The frozen model snapshots persist.
    pub(crate) model: SnapshotModel,
    /// Bootstrap provenance, one entry per table of [`Topology::TABLES`]:
    /// persisted so [`Pipeline::seed`] replays the batch decisions
    /// without re-scoring, and refuses the wrong tables.
    base: Vec<BaseTable>,
    /// The pairs merged at fit time, in decision order.
    base_matches: Vec<(usize, usize)>,
    /// Scoring buffers of the sequential path (parallel workers carry
    /// their own), so steady-state scoring allocates nothing.
    batch: ScoreBatch,
    /// The sequential path's fill and kernel buffers and Monge-Elkan
    /// memo.
    scratch: FillScratch,
    /// The shared-key counters of every admission (both ingest paths
    /// admit on this writer).
    key_counts: KeyCounts,
    /// Candidate pairs generated so far (see [`StreamStats`]).
    candidates_seen: usize,
    /// Snapshot tombstones (bootstrap-record indices) that
    /// [`Pipeline::seed`] has not replayed yet; retraction is refused
    /// until it has, since the indices would be ambiguous.
    pending_tombstones: Vec<usize>,
    /// Snapshot epoch, re-pinned by [`Pipeline::seed`].
    pending_epoch: u64,
    /// `None` when [`StreamOptions::metrics`] is off: one branch per
    /// stage boundary.
    pub(crate) meters: Option<StageMeters>,
    /// Always folded, so the refresh watermark works with metrics off;
    /// the metrics flag gates only gauge publication.
    drift: DriftMonitor,
    /// Refits since construction (0 = the bootstrap model).
    generation: u64,
}

impl<T: Topology> Pipeline<T> {
    /// A pipeline over `store` with empty indexes and no bootstrap
    /// provenance, scoring with `model`.
    pub(crate) fn new(
        opts: StreamOptions,
        store: EntityStore,
        featurizer: BatchFeaturizer,
        model: SnapshotModel,
    ) -> Result<Self, StreamError> {
        let scorer = model.scoring().scorer()?;
        debug_assert_eq!(featurizer.dim(), scorer.snapshot().dim());
        Ok(Self {
            meters: StageMeters::from_flag(opts.metrics, T::METRICS),
            drift: DriftMonitor::new(scorer.snapshot()),
            indexes: T::TABLES
                .iter()
                .map(|_| IncrementalIndex::new(opts.index_config()))
                .collect(),
            tags: Vec::new(),
            opts,
            store,
            featurizer,
            scorer,
            model,
            base: Vec::new(),
            base_matches: Vec::new(),
            batch: ScoreBatch::new(),
            scratch: FillScratch::new(),
            key_counts: KeyCounts::new(),
            candidates_seen: 0,
            pending_tombstones: Vec::new(),
            pending_epoch: 0,
            generation: 0,
        })
    }

    /// Finishes a bootstrap over the fit's store, which holds `tables`'
    /// records in order: indexes every record under its table's tag,
    /// records the tables' provenance, and merges each scored pair whose
    /// posterior clears the assignment threshold — ingest's
    /// `p > threshold` criterion, so a pair decides identically whether
    /// it arrived in the bootstrap batch or one record later. The merged
    /// pairs are the decisions [`Pipeline::seed`] replays.
    pub(crate) fn finish_bootstrap(
        &mut self,
        sw: Stopwatch,
        tables: &[&Table],
        candidates: usize,
        scored: impl Iterator<Item = ((usize, usize), f64)>,
    ) {
        let mut idx = 0;
        for (table, &(_, tag)) in tables.iter().zip(T::TABLES) {
            for _ in 0..table.len() {
                let keys = self.store.derived(idx).keys().clone();
                self.join(tag, idx, &keys);
                idx += 1;
            }
        }
        self.base = tables.iter().map(|t| BaseTable::of(t)).collect();
        self.candidates_seen = candidates;
        let threshold = self.opts.threshold;
        self.base_matches = scored
            .filter(|&(_, gamma)| gamma > threshold)
            .map(|(pair, _)| pair)
            .collect();
        for &(a, b) in &self.base_matches {
            self.store.merge(a, b);
        }
        if let Some(m) = self.meters {
            sw.total(m.bootstrap);
            m.records.add(self.store.len() as u64);
            m.candidates.add(candidates as u64);
            m.matches.add(self.base_matches.len() as u64);
        }
    }

    /// Rebuilds a scoring pipeline from a saved [`PipelineSnapshot`] of
    /// this topology's kind, with an empty store — the cold start of
    /// `zeroer ingest`, `retract`, `compact`, `refresh` and `serve`.
    /// [`Pipeline::seed`] then replays the bootstrap tables.
    ///
    /// `threshold` overrides the assignment threshold (pass
    /// `StreamOptions::default().threshold` for the standard 0.5 cut).
    /// Runtime knobs are not persisted: the compaction and refresh
    /// watermarks and the metrics flag come back at their defaults, so
    /// callers that tuned them re-apply them after restoring. For the
    /// same reason [`Pipeline::options`]'s `config` is
    /// `ZeroErConfig::default()`.
    ///
    /// # Errors
    /// Fails if the snapshot is of the other kind, if it is internally
    /// inconsistent (feature layout vs. model dimensionality), or if it
    /// carries tombstones for streamed (non-persisted) records.
    pub fn from_snapshot(snap: &PipelineSnapshot, threshold: f64) -> Result<Self, StreamError> {
        if snap.model.kind() != T::KIND || snap.bootstrap.len() != T::TABLES.len() {
            return Err(StreamError(format!(
                "a {} snapshot with {} bootstrap tables cannot restore a {} pipeline",
                snap.model.kind(),
                snap.bootstrap.len(),
                T::KIND
            )));
        }
        let featurizer = BatchFeaturizer::new(&snap.attr_types);
        if featurizer.dim() != snap.model.scoring().dim() {
            return Err(StreamError(format!(
                "snapshot attr types imply {} features but the model has {}",
                featurizer.dim(),
                snap.model.scoring().dim()
            )));
        }
        let bootstrap_len = snap.bootstrap_len();
        if let Some(t) = snap.tombstones.iter().find(|&&t| t >= bootstrap_len) {
            return Err(StreamError(format!(
                "snapshot tombstones record {t}, which lies beyond the {bootstrap_len} bootstrap \
                 records; streamed records are not persisted, so their retractions cannot be \
                 restored"
            )));
        }
        let index = &snap.index;
        let opts = StreamOptions {
            blocking_attr: index.attr,
            min_token_overlap: index.min_token_overlap,
            qgram: index.qgram,
            max_bucket: index.max_bucket,
            threshold,
            ..StreamOptions::default()
        };
        let store = EntityStore::new(snap.to_schema(), index.derive_config());
        let mut pipeline = Self::new(opts, store, featurizer, snap.model.clone())?;
        pipeline.base = snap.bootstrap.clone();
        pipeline.base_matches = snap.bootstrap_pairs.clone();
        pipeline.pending_tombstones = snap.tombstones.clone();
        pipeline.pending_epoch = snap.epoch;
        Ok(pipeline)
    }

    /// Freezes the pipeline into a serializable snapshot: the frozen
    /// model, the blocking configuration and the bootstrap provenance —
    /// each table's length and digest, the batch match decisions, the
    /// tombstones and the epoch — so a cold restart preserves the batch
    /// decisions. Tombstones a restored pipeline has not replayed yet
    /// pass through verbatim.
    pub fn snapshot(&self) -> PipelineSnapshot {
        let (tombstones, epoch) = if self.pending_tombstones.is_empty() {
            let live = (0..self.store.len()).filter(|&i| self.store.is_retracted(i));
            (live.collect(), self.store.epoch())
        } else {
            (self.pending_tombstones.clone(), self.pending_epoch)
        };
        PipelineSnapshot {
            schema: self.store.table().schema().attributes().to_vec(),
            attr_types: self.featurizer.attr_types().to_vec(),
            index: self.indexes[0].config().clone(),
            model: self.model.clone(),
            bootstrap: self.base.clone(),
            bootstrap_pairs: self.base_matches.clone(),
            tombstones,
            epoch,
        }
    }

    /// Seeds a freshly [`Pipeline::from_snapshot`]-restored pipeline with
    /// its bootstrap tables, in [`Topology::TABLES`] order, replaying the
    /// persisted batch decisions (never re-scoring) and then the
    /// persisted retractions — the cold-start equivalent of what the
    /// alias's `bootstrap` does in-process. Each table must hold the
    /// records the snapshot was bootstrapped on, in the same order. The
    /// aliases' `seed_base` name the tables.
    ///
    /// # Errors
    /// Fails if the store already holds records, the snapshot carries no
    /// bootstrap decisions, the table count does not fit the topology,
    /// or a table has the wrong record count or different records; none
    /// of these failures touches the store.
    pub fn seed(&mut self, tables: &[&Table]) -> Result<(), StreamError> {
        if self.base.iter().all(|t| t.len == 0) {
            return Err(StreamError(
                "snapshot carries no bootstrap decisions to replay".into(),
            ));
        }
        if tables.len() != T::TABLES.len() {
            return Err(StreamError(format!(
                "a {} pipeline seeds from {} tables, got {}",
                T::KIND,
                T::TABLES.len(),
                tables.len()
            )));
        }
        for ((table, base), (name, _)) in tables.iter().zip(&self.base).zip(T::TABLES) {
            base.check(name, table)?;
        }
        if !self.store.is_empty() {
            return Err(StreamError(
                "seed_base requires an empty (just-restored) pipeline".into(),
            ));
        }
        let sw = Stopwatch::new(self.meters.is_some());
        for (table, &(_, tag)) in tables.iter().zip(T::TABLES) {
            for r in table.records() {
                let derived = self.store.derive(r);
                self.join(tag, self.store.len(), derived.keys());
                self.store.push_derived(r.clone(), derived);
            }
        }
        for &(a, b) in &self.base_matches {
            self.store.merge(a, b);
        }
        for i in std::mem::take(&mut self.pending_tombstones) {
            self.retract_now(i)?;
        }
        let epoch = self.pending_epoch.max(self.store.epoch());
        self.store.set_epoch(epoch);
        if let Some(m) = self.meters {
            sw.total(m.seed);
            m.records.add(self.store.len() as u64);
        }
        Ok(())
    }

    /// The options in effect (see [`Pipeline::from_snapshot`] for what a
    /// restored pipeline keeps).
    pub fn options(&self) -> &StreamOptions {
        &self.opts
    }

    /// Reconfigures the dead-fraction auto-compaction watermark
    /// (`None` disables it). A runtime knob, not persisted in
    /// snapshots — restored pipelines start at the default.
    pub fn set_compact_watermark(&mut self, watermark: Option<f64>) {
        self.opts.compact_watermark = watermark;
    }

    /// Reconfigures the drift auto-refresh watermark (`None` disables
    /// it; see [`StreamOptions::refresh_watermark`]). A runtime knob,
    /// not persisted in snapshots — restored pipelines start at the
    /// default (off).
    pub fn set_refresh_watermark(&mut self, watermark: Option<f64>) {
        self.opts.refresh_watermark = watermark;
    }

    /// Reconfigures the minimum drift-window size before the refresh
    /// watermark may fire (see [`StreamOptions::refresh_min_records`]).
    pub fn set_refresh_min_records(&mut self, records: usize) {
        self.opts.refresh_min_records = records;
    }

    /// The entity store (for linkage: both sides' records, in one
    /// combined numbering).
    pub fn store(&self) -> &EntityStore {
        &self.store
    }

    /// The live drift monitor: streaming posterior/feature summaries
    /// against the current model's baseline.
    pub fn drift(&self) -> &DriftMonitor {
        &self.drift
    }

    /// How many times [`Pipeline::refit`] has swapped the scorer (0 =
    /// still serving the bootstrap model).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of stored records (bootstrap records included).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The pipeline epoch: advances on every retraction and compaction.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Current entity clusters (≥ 2 members), in the same shape
    /// `dedup_table` reports. Retracted records never appear.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        self.store.clusters()
    }

    /// Stores record `idx`'s tag and joins it to its index, without
    /// candidate generation.
    fn join(&mut self, tag: T::Tag, idx: usize, keys: &KeySet) {
        self.tags.push(tag);
        self.indexes[T::route(tag).1].insert_keys_at(idx, keys);
    }

    /// Candidates for an arriving record the store will hold at `idx`,
    /// which then joins its index.
    fn admit(&mut self, tag: T::Tag, idx: usize, keys: &KeySet) -> Vec<usize> {
        let (probe, join) = T::route(tag);
        let (tombstones, counts) = (self.store.tombstones(), &mut self.key_counts);
        if probe == join {
            self.tags.push(tag);
            return self.indexes[join].insert_keys_live(keys, tombstones, counts);
        }
        let candidates = self.indexes[probe].probe_live(keys, tombstones, counts);
        self.join(tag, idx, keys);
        candidates
    }

    /// Enables or disables this pipeline's stage metrics (see
    /// [`StreamOptions::metrics`]; `stream.` metrics for dedup, `link.`
    /// for linkage). A runtime knob, not persisted in snapshots. Metrics
    /// are purely observational: on or off, every decision, cluster and
    /// snapshot is bit-identical.
    pub fn set_metrics(&mut self, on: bool) {
        self.opts.metrics = on;
        self.meters = StageMeters::from_flag(on, T::METRICS);
    }

    fn check_arity(&self, record: &Record) -> Result<(), StreamError> {
        check_arity(record, self.store.table().schema().arity())
    }

    fn assert_arity(&self, record: &Record) {
        self.check_arity(record).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Derivation and blocking observability counters; index counters
    /// aggregate every index.
    pub fn stats(&self) -> StreamStats {
        let mut index = IndexStats::default();
        for ix in &self.indexes {
            index.absorb(ix.stats());
        }
        StreamStats {
            interned_tokens: self.store.interner().len(),
            interned_bytes: self.store.interner().bytes(),
            index,
            candidate_pairs: self.candidates_seen,
            live_records: self.store.live_len(),
            retracted_records: self.store.retracted_count(),
            decision_log: self.store.decision_log_len(),
            epoch: self.store.epoch(),
        }
    }

    /// Clones the read state into a [`ReadView`] (version 0 — the
    /// publisher stamps the real sequence number).
    pub(crate) fn read_view(&self) -> ReadView {
        ReadView {
            epoch: self.store.epoch(),
            version: 0,
            store: self.store.clone(),
            indexes: self.indexes.clone(),
            featurizer: self.featurizer.clone(),
            scorer: self.scorer.clone(),
            threshold: self.opts.threshold,
            score_meter: self.meters.map(|m| m.score_batch_candidates),
        }
    }

    /// Ingests one record: derive → admit through the topology → score →
    /// decide. Zero EM iterations; no call boundary
    /// ([`Pipeline::after_ingest`]).
    ///
    /// # Panics
    /// Panics if the record arity does not match the schema.
    fn ingest_record(&mut self, record: Record, tag: T::Tag) -> IngestOutcome {
        // Validate before touching any state: a panic must not leave the
        // index one record ahead of the store.
        self.assert_arity(&record);
        let m = self.meters;
        let mut sw = Stopwatch::new(m.is_some());
        let (idx, candidates) = self.store_record(record, tag, &mut sw);
        let store = &self.store;
        let matches = score_candidates(
            &self.featurizer,
            &self.scorer,
            store.interner(),
            self.opts.threshold,
            T::new_on_left(tag),
            &candidates,
            |c| store.derived(c),
            store.derived(idx),
            &mut self.batch,
            &mut self.scratch,
            m.map(|m| m.score_batch_candidates),
        );
        if let Some(m) = m {
            sw.lap(m.score);
        }
        // The batch buffers hold this record's prepared columns and
        // posteriors; `from_batch` rejects the zero-candidate case,
        // whose stale buffers belong to an earlier record.
        let sample = DriftSample::from_batch(&self.batch, candidates.len());
        let outcome = self.decide(idx, candidates.len(), matches, sample);
        if let Some(m) = m {
            sw.lap(m.decide);
            sw.total(m.ingest);
            m.records.incr();
            m.matches.add(outcome.matches.len() as u64);
        }
        outcome
    }

    /// The writer's per-record step of both ingest paths: derive the
    /// record through the store's deriver, admit it through the
    /// topology, push it to the store. Run in ingest order, so the
    /// interner numbers tokens and every bucket receives its postings in
    /// the same order at any thread count. Laps `{p}.derive.ns` and
    /// `{p}.block.ns` on `sw`; returns the record's index and candidates.
    fn store_record(
        &mut self,
        record: Record,
        tag: T::Tag,
        sw: &mut Stopwatch,
    ) -> (usize, Vec<usize>) {
        let m = self.meters;
        let derived = self.store.derive(&record);
        if let Some(m) = m {
            sw.lap(m.derive);
        }
        let candidates = self.admit(tag, self.store.len(), derived.keys());
        self.candidates_seen += candidates.len();
        if let Some(m) = m {
            sw.lap(m.block);
            m.candidates.add(candidates.len() as u64);
        }
        (self.store.push_derived(record, derived), candidates)
    }

    /// Applies one record's decisions: fold its drift sample and join the
    /// cluster of every match. The single writer of both ingest paths.
    fn decide(
        &mut self,
        idx: usize,
        candidates: usize,
        matches: Vec<(usize, f64)>,
        sample: Option<DriftSample>,
    ) -> IngestOutcome {
        self.drift.fold(candidates, matches.len(), sample.as_ref());
        for &(c, _) in &matches {
            self.store.merge(idx, c);
        }
        IngestOutcome {
            index: idx,
            candidates,
            matches,
            cluster: self.store.find(idx),
        }
    }

    /// Ingests a same-tag batch across `threads` scoring workers,
    /// bit-identical to ingesting the records one at a time (which
    /// `threads` ≤ 1 does); no call boundary.
    ///
    /// The single writer first derives, admits and stores every record in
    /// ingest order — sequential ingest's per-record step — so interner,
    /// indexes and store pass through the sequential states. The frozen
    /// model then makes scoring embarrassingly parallel: the pool reads
    /// only the store and the candidate lists. Last, the writer applies
    /// the decisions in ingest order, so the union-find passes through
    /// the sequential states too.
    ///
    /// # Panics
    /// Panics if any record's arity does not match the schema (checked
    /// for the whole batch, before any state is touched).
    fn ingest_records(
        &mut self,
        records: Vec<Record>,
        tag: T::Tag,
        threads: usize,
    ) -> Vec<IngestOutcome> {
        for r in &records {
            self.assert_arity(r);
        }
        if threads <= 1 || records.len() < 2 {
            return records
                .into_iter()
                .map(|r| self.ingest_record(r, tag))
                .collect();
        }
        let n = records.len();
        let base = self.store.len();
        let m = self.meters;
        let mut sw = Stopwatch::new(m.is_some());

        // Phase 1 (writer, ingest order): derive → admit → store. The
        // tombstone set is frozen for the whole batch (retraction needs
        // `&mut self`), so candidate lists are the sequential ones.
        let candidates: Vec<Vec<usize>> = records
            .into_iter()
            .map(|r| self.store_record(r, tag, &mut sw).1)
            .collect();
        if let Some(m) = m {
            let total = candidates.iter().map(Vec::len).sum::<usize>();
            m.batch_candidates.record(total as u64);
        }

        // Phase 2 (pool, work-stealing queue): frozen-model scoring of
        // the stored records. Chunks are small so a record with many
        // candidates cannot straggle a whole static partition.
        let store = &self.store;
        let featurizer = &self.featurizer;
        let scorer = &self.scorer;
        let threshold = self.opts.threshold;
        let new_on_left = T::new_on_left(tag);
        let score_meter = m.map(|m| m.score_batch_candidates);
        let mut scored: Vec<ScoredRecord> = (0..n).map(|_| (Vec::new(), None)).collect();
        {
            let score_chunk = n.div_ceil(threads * 8).max(1);
            let queue: Mutex<Vec<ScoreJob<'_>>> = Mutex::new(
                scored
                    .chunks_mut(score_chunk)
                    .enumerate()
                    .map(|(ci, ch)| (ci * score_chunk, ch))
                    .collect(),
            );
            // Queue-wait sampling measures lock acquisition only (the
            // pop itself is O(1)); a handle copy, not `self`, crosses
            // into the workers.
            let queue_wait = m.map(|m| m.queue_wait);
            crossbeam::thread::scope(|scope| {
                for _ in 0..threads {
                    let queue = &queue;
                    let candidates = &candidates;
                    scope.spawn(move |_| {
                        let mut batch = ScoreBatch::new();
                        let mut scratch = FillScratch::new();
                        loop {
                            let before = queue_wait.map(|h| (h, std::time::Instant::now()));
                            let mut q = queue.lock().expect("queue poisoned");
                            let waited = before.map(|(h, t)| (h, t.elapsed()));
                            let job = q.pop();
                            drop(q);
                            if let Some((h, d)) = waited {
                                h.record(d.as_nanos().min(u64::MAX as u128) as u64);
                            }
                            let Some((start, out)) = job else { break };
                            for (off, slot) in out.iter_mut().enumerate() {
                                let i = start + off;
                                let matches = score_candidates(
                                    featurizer,
                                    scorer,
                                    store.interner(),
                                    threshold,
                                    new_on_left,
                                    &candidates[i],
                                    |c| store.derived(c),
                                    store.derived(base + i),
                                    &mut batch,
                                    &mut scratch,
                                    score_meter,
                                );
                                // Sample the worker's batch buffers
                                // immediately, while they still hold
                                // record `i`'s prepared columns and
                                // posteriors; the single writer folds
                                // the samples in ingest order, so the
                                // drift stream stays bit-identical to
                                // the sequential path.
                                let sample = DriftSample::from_batch(&batch, candidates[i].len());
                                *slot = (matches, sample);
                            }
                        }
                    });
                }
            })
            .expect("scoring worker panicked");
        }
        if let Some(m) = m {
            sw.lap(m.batch_score);
        }

        // Phase 3 (writer, ingest order): apply the match decisions.
        let mut outcomes = Vec::with_capacity(n);
        for (i, ((matches, sample), cands)) in scored.into_iter().zip(&candidates).enumerate() {
            outcomes.push(self.decide(base + i, cands.len(), matches, sample));
        }
        if let Some(m) = m {
            sw.lap(m.batch_decide);
            sw.total(m.batch);
            m.records.add(n as u64);
            m.matches
                .add(outcomes.iter().map(|o| o.matches.len() as u64).sum());
        }
        outcomes
    }

    /// Validates that `idx` names a live record.
    fn check_live(&self, idx: usize) -> Result<(), StreamError> {
        if idx >= self.store.len() {
            return Err(StreamError(format!(
                "unknown record index {idx} (store holds {} records)",
                self.store.len()
            )));
        }
        if self.store.is_retracted(idx) {
            return Err(StreamError(format!("record {idx} is already retracted")));
        }
        Ok(())
    }

    /// Tombstones the record (rebuilding its component from the decision
    /// log) and marks its postings dead in its own index. No watermark
    /// check: [`Pipeline::seed`] replays tombstones through this.
    fn retract_now(&mut self, idx: usize) -> Result<RetractionReport, StreamError> {
        self.check_live(idx)?;
        let home = T::route(self.tags[idx]).1;
        let out = self.store.retract(idx).map_err(StreamError)?;
        // The derivation, where the record's blocking keys live, stays
        // until compaction.
        let postings_tombstoned =
            self.indexes[home].retract_keys(idx, self.store.derived(idx).keys());
        Ok(RetractionReport {
            epoch: out.epoch,
            component_size: out.component_size,
            postings_tombstoned,
            auto_compaction: None,
        })
    }

    /// Retracts record `idx`: the record is tombstoned, its connected
    /// component's clusters are rebuilt from the match-decision log as if
    /// it had never been ingested, and its postings are marked dead in its
    /// own index (candidates never see it again). If the dead-posting
    /// fraction then crosses [`StreamOptions::compact_watermark`], the
    /// pipeline compacts itself and reports it.
    ///
    /// Record indices are never reused: every other record keeps its
    /// index, and the slot stays allocated until compaction releases its
    /// heavy state.
    ///
    /// # Errors
    /// Fails on an out-of-range index, an already-retracted record, or a
    /// snapshot-restored pipeline whose persisted tombstones have not been
    /// replayed yet (seed it first).
    pub fn retract(&mut self, idx: usize) -> Result<RetractionReport, StreamError> {
        if !self.pending_tombstones.is_empty() {
            return Err(StreamError(
                "snapshot tombstones are pending; seed_base must replay the bootstrap \
                 records before new retractions"
                    .into(),
            ));
        }
        let m = self.meters;
        let sw = Stopwatch::new(m.is_some());
        let mut report = self.retract_now(idx)?;
        report.auto_compaction = self.maybe_autocompact();
        if let Some(c) = &report.auto_compaction {
            report.epoch = c.epoch;
        }
        if let Some(m) = m {
            // Includes any auto-compaction the watermark triggered
            // (which also times itself under `compact.ns`).
            sw.total(m.retract);
            m.retractions.incr();
        }
        Ok(report)
    }

    /// Retracts a batch of records, all-or-nothing: every id is validated
    /// (in range, live, no duplicates) before the first retraction is
    /// applied, so a bad id cannot leave the pipeline half-updated.
    ///
    /// # Errors
    /// Fails without side effects if any id is invalid.
    pub fn retract_batch(&mut self, ids: &[usize]) -> Result<Vec<RetractionReport>, StreamError> {
        let mut seen = std::collections::HashSet::new();
        for &idx in ids {
            self.check_live(idx)?;
            if !seen.insert(idx) {
                return Err(StreamError(format!(
                    "record {idx} appears twice in the retraction batch"
                )));
            }
        }
        ids.iter().map(|&idx| self.retract(idx)).collect()
    }

    /// Compacts the pipeline in place: drops tombstoned postings from
    /// every index, frees emptied and cap-retired buckets, prunes dead
    /// decision-log edges, and releases retracted records' derivations.
    /// Advances the epoch.
    ///
    /// Dead postings and dead log edges were already invisible, so
    /// dropping them never changes behavior. The one semantic edge is
    /// cap-retired (`Dead`) bucket markers: compaction removes them, so a
    /// formerly hot blocking key becomes pairable again until its *live*
    /// population re-crosses the frequency cap — the state a fresh index
    /// over the surviving records would be in. See the retraction section
    /// of the `crate::index` module docs.
    pub fn compact(&mut self) -> CompactionReport {
        let m = self.meters;
        let sw = Stopwatch::new(m.is_some());
        let mut index = CompactionDelta::default();
        for ix in &mut self.indexes {
            index.absorb(ix.compact(self.store.tombstones()));
        }
        let store = self.store.compact();
        let report = CompactionReport {
            epoch: self.store.epoch(),
            index,
            store,
        };
        if let Some(m) = m {
            sw.total(m.compact);
            m.compactions.incr();
            m.reclaimed_bytes.add(report.bytes_reclaimed() as u64);
        }
        report
    }

    /// Compacts once the dead-posting fraction crosses the watermark.
    fn maybe_autocompact(&mut self) -> Option<CompactionReport> {
        let watermark = self.opts.compact_watermark?;
        let (mut postings, mut dead) = (0, 0);
        for ix in &self.indexes {
            let (p, d) = ix.posting_counts();
            postings += p;
            dead += d;
        }
        if dead > 0 && dead as f64 >= watermark * postings.max(1) as f64 {
            Some(self.compact())
        } else {
            None
        }
    }

    /// Whether the drift divergence has crossed the refresh watermark on
    /// a large enough window.
    fn refresh_due(&self) -> bool {
        self.opts.refresh_watermark.is_some_and(|watermark| {
            self.drift.window_records() >= self.opts.refresh_min_records as u64
                && self.drift.divergence() >= watermark
        })
    }

    /// The live (non-retracted) records with their store indices.
    pub(crate) fn live_records(&self) -> impl Iterator<Item = (usize, &Record)> {
        self.store
            .table()
            .records()
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.store.is_retracted(i))
    }

    /// The ingest-call boundary: refit if the drift watermark fired, then
    /// publish the drift gauges. Once per call, not per record, so
    /// sequential and parallel ingestion of a batch trigger identically.
    /// A failed auto-refit clears the window rather than retrying on
    /// every call.
    fn after_ingest(&mut self) {
        if self.refresh_due() && self.refit().is_err() {
            self.drift.clear_window();
        }
        if self.meters.is_some() {
            self.drift.publish();
        }
    }

    /// One record through [`Pipeline::ingest_record`], then the call
    /// boundary.
    pub(crate) fn ingest_one(&mut self, record: Record, tag: T::Tag) -> IngestOutcome {
        let outcome = self.ingest_record(record, tag);
        self.after_ingest();
        outcome
    }

    /// Ingests a same-tag batch across `threads` workers, then checks the
    /// refresh watermark once: the topology-generic form of the aliases'
    /// `ingest_batch_parallel`, which the read/write split and the CLI
    /// call. Outcomes are bit-identical at any thread count: only scoring
    /// runs on the pool, and a single writer derives, admits and decides
    /// in ingest order.
    ///
    /// # Panics
    /// Panics if any record's arity does not match the schema (checked
    /// for the whole batch, before any state is touched).
    pub fn ingest_tagged(
        &mut self,
        records: Vec<Record>,
        tag: T::Tag,
        threads: usize,
    ) -> Vec<IngestOutcome> {
        let outcomes = self.ingest_records(records, tag, threads);
        self.after_ingest();
        outcomes
    }

    /// Replaces record `idx` with `record`: retract the old version,
    /// ingest the new one under the old version's tag (its side, for
    /// linkage), which gets a **fresh index** — slots are never reused.
    /// Returns the ingest outcome of the new version.
    ///
    /// # Errors
    /// Fails like [`Pipeline::retract`], or when the new record's arity
    /// does not match the schema. Either way nothing is applied: the old
    /// version must never be destroyed for a replacement that cannot be
    /// ingested.
    pub fn update(&mut self, idx: usize, record: Record) -> Result<IngestOutcome, StreamError> {
        self.check_arity(&record)?;
        self.retract(idx)?;
        let tag = self.tags[idx];
        Ok(self.ingest_one(record, tag))
    }

    /// Re-runs the bootstrap fit recipe over the store's **live** records
    /// (split back into their tables, for linkage) and swaps the frozen
    /// scorer for the freshly fitted model — the online half of the
    /// snapshot lifecycle.
    ///
    /// Nothing else moves: the store, blocking indexes, cluster
    /// assignments and decision log are untouched. Historical match
    /// decisions stay exactly as the model that made them decided — only
    /// records ingested *after* the swap are scored by the new model.
    /// [`Pipeline::snapshot`] afterwards persists the new model together
    /// with the original bootstrap provenance, so [`Pipeline::seed`]
    /// still replays the historical decisions verbatim.
    ///
    /// The refit is deterministic (EM from a fixed initialization over a
    /// deterministic candidate set), so two pipelines with the same live
    /// records refit to bit-identical models. On success the model
    /// generation advances and the drift monitor re-baselines on the new
    /// model with an empty window. With
    /// [`StreamOptions::refresh_watermark`] set, ingest calls run this
    /// automatically once the drift divergence crosses it.
    ///
    /// # Errors
    /// Fails — leaving the current model untouched — when the live
    /// records yield no candidate pairs, when the refit produces
    /// non-finite parameters (degenerate window), or when the live data's
    /// inferred attribute types no longer match the frozen feature
    /// layout.
    pub fn refit(&mut self) -> Result<RefreshReport, StreamError> {
        let sw = Stopwatch::new(self.meters.is_some());
        let divergence = self.drift.divergence();
        let (model, fit) = T::fit_live(self)?;
        let scorer = model.scoring().scorer()?;
        debug_assert_eq!(scorer.snapshot().dim(), self.scorer.snapshot().dim());
        // The swap: from here on every scoring call sees the new model,
        // and snapshots persist it.
        self.scorer = scorer;
        self.model = model;
        self.generation += 1;
        self.drift.rebase(self.scorer.snapshot());
        if let Some(m) = self.meters {
            sw.total(m.refresh);
            m.refreshes.incr();
        }
        Ok(RefreshReport {
            divergence,
            generation: self.generation,
            ..fit
        })
    }

    /// Pins the pipeline's current read state as a standalone
    /// [`ReadHandle`] (it cannot refresh; use
    /// [`crate::SplitPipeline::read_handle`] for handles that follow the
    /// write path's publications). Its resolves run ingest's candidate
    /// rule and scoring code, minus the insertion.
    pub fn pin_read_handle(&self) -> ReadHandle<T> {
        ReadHandle::pin_standalone(self)
    }
}
