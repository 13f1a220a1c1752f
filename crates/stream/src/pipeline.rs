//! The streaming façade: bootstrap once, then ingest forever —
//! sequentially one record at a time, or in parallel batches across a
//! worker pool (see [`StreamPipeline::ingest_batch_parallel`]) — and
//! retract records again ([`StreamPipeline::retract`]) with online
//! compaction ([`StreamPipeline::compact`], plus an automatic
//! dead-fraction watermark) so long-lived nodes never need a
//! stop-the-world rebuild.

use crate::engine::{self, Dedup, Engine, Pipeline};
use crate::index::{CompactionDelta, IndexConfig, IndexStats};
use crate::snapshot::PipelineSnapshot;
use crate::store::{EntityStore, StoreCompaction};
use zeroer_blocking::{standard_candidates_derived, PairMode};
use zeroer_core::{
    GenerativeModel, ModelSnapshot, SnapshotScorer, TransitivityCalibrator, ZeroErConfig,
};
use zeroer_features::{BatchFeaturizer, PairFeaturizer};
use zeroer_obs::Stopwatch;
use zeroer_tabular::{AttrType, Record, Table};

/// The machine's available parallelism — the default for the `--threads`
/// ingest flag and [`StreamPipeline::ingest_batch_parallel`] callers that
/// do not care.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Streaming-pipeline error (bootstrap degeneracies, snapshot mismatch).
#[derive(Debug, Clone)]
pub struct StreamError(pub String);

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for StreamError {}

impl From<zeroer_core::json::JsonError> for StreamError {
    fn from(e: zeroer_core::json::JsonError) -> Self {
        StreamError(e.to_string())
    }
}

/// Options for [`StreamPipeline`]. Blocking defaults mirror the batch
/// `MatchOptions`, so bootstrap-vs-batch comparisons are apples to
/// apples.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Model configuration used by the bootstrap fit.
    pub config: ZeroErConfig,
    /// Attribute index used as the blocking key.
    pub blocking_attr: usize,
    /// Minimum shared word tokens for a candidate pair (1 unions in
    /// q-gram blocking; ≥ 2 is overlap blocking).
    pub min_token_overlap: usize,
    /// q-gram size for the q-gram blocking leg.
    pub qgram: usize,
    /// Stop-word bucket cap for both blocking legs.
    pub max_bucket: usize,
    /// Posterior threshold for assigning an incoming record to an
    /// existing entity. Strictly-above semantics (`p > threshold`),
    /// matching the paper's Eq. 5 labeling rule `γ > 0.5` — note the
    /// CLI's `--threshold` *display* filter on the batch paths is `>=`.
    pub threshold: f64,
    /// Dead-fraction watermark for automatic compaction: when, after a
    /// retraction, at least this fraction of index postings is
    /// tombstoned, the pipeline compacts itself. `None` disables
    /// auto-compaction ([`StreamPipeline::compact`] stays available).
    pub compact_watermark: Option<f64>,
    /// Drift watermark for automatic model refresh: when, at an ingest
    /// boundary, the [`crate::DriftMonitor`] divergence (max normalized
    /// shift across the feature dimensions and the posterior match rate,
    /// in baseline-spread units) reaches this value, the pipeline re-fits
    /// the model over its live records ([`StreamPipeline::refit`]) and
    /// swaps the frozen scorer. `None` (the default) disables
    /// auto-refresh; manual `refit()` stays available. Checked only
    /// **between** ingest calls — once per record for
    /// [`StreamPipeline::ingest`], once per batch for the batch paths —
    /// so sequential and parallel ingestion of the same batch trigger
    /// (or not) identically.
    pub refresh_watermark: Option<f64>,
    /// Minimum drift-window records before the refresh watermark can
    /// fire: early small windows produce noisy divergence estimates, so
    /// auto-refresh waits until at least this many records have been
    /// folded since the last (re)baseline.
    pub refresh_min_records: usize,
    /// Whether the pipeline records stage timings and counters into
    /// the process-global `zeroer-obs` registry (default on; see
    /// `crates/obs/README.md` for the metric catalog). Purely
    /// observational — decisions, clusters and snapshots are
    /// bit-identical either way — but benches flip it off to measure
    /// instrumentation overhead honestly
    /// ([`StreamPipeline::set_metrics`] is the runtime knob).
    pub metrics: bool,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            config: ZeroErConfig::default(),
            blocking_attr: 0,
            min_token_overlap: 1,
            qgram: 4,
            max_bucket: 400,
            threshold: 0.5,
            compact_watermark: Some(0.5),
            refresh_watermark: None,
            refresh_min_records: 64,
            metrics: true,
        }
    }
}

impl StreamOptions {
    pub(crate) fn index_config(&self) -> IndexConfig {
        IndexConfig {
            attr: self.blocking_attr,
            qgram: self.qgram,
            max_bucket: self.max_bucket,
            min_token_overlap: self.min_token_overlap,
        }
    }
}

/// What the bootstrap batch fit produced (the same shape `dedup_table`
/// reports), for callers that want the batch results alongside the live
/// pipeline.
#[derive(Debug, Clone)]
pub struct BootstrapReport {
    /// Candidate pairs of the bootstrap dedup, `(i, j)` with `i < j`.
    pub pairs: Vec<(usize, usize)>,
    /// Posterior duplicate probability per pair.
    pub probabilities: Vec<f64>,
    /// Hard labels at the 0.5 threshold.
    pub labels: Vec<bool>,
    /// EM iterations the bootstrap fit ran.
    pub em_iterations: usize,
}

/// Result of ingesting one record.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// The record's index in the entity store.
    pub index: usize,
    /// Number of blocking candidates that were scored.
    pub candidates: usize,
    /// Existing records the new one matched, with posteriors, sorted by
    /// descending posterior.
    pub matches: Vec<(usize, f64)>,
    /// Cluster representative after assignment (== `index` for a fresh
    /// entity).
    pub cluster: usize,
}

impl IngestOutcome {
    /// Whether the record minted a new entity.
    pub fn is_new_entity(&self) -> bool {
        self.matches.is_empty()
    }
}

/// Blocking / derivation observability counters (`zeroer ... --stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Distinct tokens in the store interner.
    pub interned_tokens: usize,
    /// Bytes of distinct token text stored (each token once).
    pub interned_bytes: usize,
    /// Live/retired bucket and posting counts per blocking leg.
    pub index: IndexStats,
    /// Candidate pairs generated so far (bootstrap blocking + every
    /// ingest's blocking lookups).
    pub candidate_pairs: usize,
    /// Live (non-retracted) records in the store.
    pub live_records: usize,
    /// Retracted records (tombstoned slots; their indices stay
    /// allocated).
    pub retracted_records: usize,
    /// Edges currently held in the match-decision log.
    pub decision_log: usize,
    /// Store epoch (advances on every retraction and compaction).
    pub epoch: u64,
}

impl StreamStats {
    /// Publishes these counters as gauges in the process-global
    /// `zeroer-obs` registry (always — gauges are point-in-time
    /// state, not hot-path instrumentation, so they ignore the
    /// per-pipeline metrics flag). The CLI's `--stats` renderer and
    /// `--metrics` JSON read them back from there; the names are
    /// cataloged in `crates/obs/README.md`.
    pub fn publish(&self) {
        let g = |name: &str, v: usize| zeroer_obs::gauge(name).set(v as u64);
        g("derive.interned_tokens", self.interned_tokens);
        g("derive.interned_bytes", self.interned_bytes);
        g("block.candidate_pairs", self.candidate_pairs);
        for (leg, s) in [("token", &self.index.token), ("qgram", &self.index.qgram)] {
            g(&format!("index.{leg}.live_buckets"), s.live);
            g(&format!("index.{leg}.retired_buckets"), s.retired);
            g(&format!("index.{leg}.postings"), s.postings);
            g(&format!("index.{leg}.dead_postings"), s.dead_postings);
        }
        g("store.live_records", self.live_records);
        g("store.retracted_records", self.retracted_records);
        g("store.decision_log_edges", self.decision_log);
        zeroer_obs::gauge("store.epoch").set(self.epoch);
    }
}

/// Renders the `--stats` observability block from the process-global
/// `zeroer-obs` registry (the single source the `--metrics` JSON dump
/// also reads). One implementation serves every consumer — the CLI
/// prints the returned string to stderr, and the serve admin `stats`
/// verb ships the same bytes over the wire — so the two can never
/// drift.
///
/// The streaming paths publish their gauges first ([`StreamStats::publish`]);
/// the batch `dedup` path publishes only the derivation/blocking
/// gauges, so the blocking-leg and store lines render only when a
/// streaming index has reported in. Lines are newline-terminated.
pub fn render_stats() -> String {
    use std::fmt::Write as _;
    let snap = zeroer_obs::snapshot();
    let g = |name: &str| snap.gauge(name).unwrap_or(0);
    let mut text = String::new();
    writeln!(
        text,
        "zeroer: derivation: {} distinct tokens interned ({} bytes); \
         candidate pairs generated: {}",
        g("derive.interned_tokens"),
        g("derive.interned_bytes"),
        g("block.candidate_pairs")
    )
    .expect("writing to a String cannot fail");
    if snap.gauge("index.token.live_buckets").is_none() {
        return text;
    }
    writeln!(
        text,
        "zeroer: blocking legs: token {} live / {} retired buckets ({} postings, {} dead); \
         qgram {} live / {} retired buckets ({} postings, {} dead)",
        g("index.token.live_buckets"),
        g("index.token.retired_buckets"),
        g("index.token.postings"),
        g("index.token.dead_postings"),
        g("index.qgram.live_buckets"),
        g("index.qgram.retired_buckets"),
        g("index.qgram.postings"),
        g("index.qgram.dead_postings")
    )
    .expect("writing to a String cannot fail");
    writeln!(
        text,
        "zeroer: store: {} live / {} retracted records; decision log {} edges; epoch {}",
        g("store.live_records"),
        g("store.retracted_records"),
        g("store.decision_log_edges"),
        g("store.epoch")
    )
    .expect("writing to a String cannot fail");
    text
}

/// What one retraction did (see [`StreamPipeline::retract`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RetractionReport {
    /// Pipeline epoch after the retraction (and any auto-compaction).
    pub epoch: u64,
    /// Size of the rebuilt connected component (1 = singleton, nothing
    /// to rebuild).
    pub component_size: usize,
    /// Index postings tombstoned for the record.
    pub postings_tombstoned: usize,
    /// The compaction the dead-fraction watermark triggered, if any.
    pub auto_compaction: Option<CompactionReport>,
}

/// What one compaction pass reclaimed (see [`StreamPipeline::compact`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionReport {
    /// Pipeline epoch after the compaction.
    pub epoch: u64,
    /// Index-side reclaim: postings dropped, buckets freed, bytes.
    pub index: CompactionDelta,
    /// Store-side reclaim: pruned decision edges, freed derivation
    /// bytes.
    pub store: StoreCompaction,
}

impl CompactionReport {
    /// Total estimated bytes released by this pass.
    pub fn bytes_reclaimed(&self) -> usize {
        self.index.bytes_reclaimed + self.store.derived_bytes_freed
    }
}

/// What one model refresh did (see [`StreamPipeline::refit`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RefreshReport {
    /// Live records the model was re-fitted on.
    pub records: usize,
    /// Candidate pairs the refit blocking pass produced.
    pub pairs: usize,
    /// EM iterations the refit ran.
    pub em_iterations: usize,
    /// Drift divergence at the moment the refit started (in
    /// baseline-spread units; 0.0 when the window was empty).
    pub divergence: f64,
    /// Whether the refresh watermark triggered this refit (`false` for
    /// manual [`StreamPipeline::refit`] calls).
    pub auto: bool,
    /// Model generation after the swap (bootstrap model = 0).
    pub generation: u64,
}

/// Incremental entity resolution on top of a frozen batch-fitted model:
/// ingest records one at a time, find candidates via an incremental
/// blocking index, score them with snapshot inference (no EM), and
/// maintain entity clusters transitively in a union-find. The dedup
/// topology of the shared streaming engine (see the crate docs).
pub struct StreamPipeline {
    engine: Engine<Dedup>,
    /// Bootstrap provenance: how many records the model was fitted on,
    /// which pairs were merged at fit time, and a digest of those
    /// records; persisted into the snapshot so `seed_base` can replay
    /// batch decisions without re-scoring (and refuse the wrong table).
    base_len: usize,
    base_matches: Vec<(usize, usize)>,
    base_digest: u64,
}

/// Order-sensitive FNV-1a digest of a record sequence (ids + values),
/// used to pin persisted bootstrap decisions to the exact table they
/// were made on: replaying merge pairs onto different or reordered
/// records would silently produce wrong clusters.
pub(crate) fn records_digest(records: &[Record]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(&r.id.to_le_bytes());
        for v in &r.values {
            match v.as_text() {
                Some(t) => {
                    eat(&[0xff]);
                    eat(t.as_bytes());
                }
                None => eat(&[0xfe]),
            }
        }
    }
    h
}

/// The refusal every refit issues when the live data infers a different
/// feature layout than the frozen one.
pub(crate) fn structural_drift() -> StreamError {
    StreamError(
        "refit inferred different attribute types than the frozen feature layout; \
         the live data has drifted structurally, not just statistically — refusing \
         to swap a model with a different feature space"
            .into(),
    )
}

/// What the dedup fit recipe produced.
struct DedupFit {
    /// The fit's featurizer, whose derivation bootstrap hands to the
    /// store.
    fz: PairFeaturizer,
    pairs: Vec<(usize, usize)>,
    model: GenerativeModel,
    snapshot: ModelSnapshot,
    em_iterations: usize,
}

/// The dedup fit recipe [`StreamPipeline::bootstrap`] and
/// [`StreamPipeline::refit`] share: blocking → features → normalization
/// → EM with the transitivity calibrator → freeze. `frozen` is the
/// feature layout a refit must keep (`None` at bootstrap).
fn fit_dedup(
    table: &Table,
    opts: &StreamOptions,
    frozen: Option<&[AttrType]>,
) -> Result<DedupFit, StreamError> {
    let fz = PairFeaturizer::with_config(table, table, opts.index_config().derive_config());
    if frozen.is_some_and(|types| fz.attr_types() != types) {
        return Err(structural_drift());
    }
    let cs = standard_candidates_derived(
        fz.left_derived(),
        None,
        PairMode::Dedup,
        opts.min_token_overlap,
        opts.max_bucket,
    );
    if cs.is_empty() {
        return Err(StreamError(
            "blocking produced no candidate pairs; nothing to fit a model on".into(),
        ));
    }
    let mut fs = fz.featurize(cs.pairs());
    fs.normalize();
    let mut model = GenerativeModel::new(opts.config.clone(), fs.layout.clone());
    let calibrator = TransitivityCalibrator::new(cs.pairs());
    let summary = model.fit(&fs.matrix, Some(&calibrator));
    let ranges = fs.ranges.as_ref().expect("normalize() was called");
    let snapshot = ModelSnapshot::capture_checked(&model, ranges, &fs.impute_means, &fs.names)
        .ok_or_else(|| {
            StreamError(
                "the fit converged to non-finite model parameters (degenerate records)".into(),
            )
        })?;
    Ok(DedupFit {
        fz,
        pairs: cs.pairs().to_vec(),
        model,
        snapshot,
        em_iterations: summary.iterations,
    })
}

impl StreamPipeline {
    /// Bootstraps from an initial batch: runs the full batch dedup
    /// pipeline (blocking → features → normalization → EM with the
    /// transitivity calibrator) on `initial`, freezes the fitted model
    /// into a snapshot, seeds the store/indexes with the initial records,
    /// and applies the batch match decisions to the cluster index.
    ///
    /// The initial records are derived exactly **once**: the featurizer's
    /// derivation (which also carries the blocking keys) feeds batch
    /// blocking, feature generation, the index seed, and is then handed
    /// to the entity store together with its interner.
    ///
    /// # Errors
    /// Fails when `initial` yields no candidate pairs (nothing to fit),
    /// or when the fit is too degenerate to freeze.
    pub fn bootstrap(
        initial: &Table,
        opts: StreamOptions,
    ) -> Result<(Self, BootstrapReport), StreamError> {
        let sw = Stopwatch::new(opts.metrics);
        let fit = fit_dedup(initial, &opts, None)?;
        let scorer = fit.snapshot.scorer()?;
        let featurizer = BatchFeaturizer::new(fit.fz.attr_types());

        // Hand the featurizer's derivation (and interner) to the store —
        // no record is derived twice — and seed the blocking index from
        // the derived keys.
        let (interner, derived) = fit.fz.into_parts();
        let derive_cfg = opts.index_config().derive_config();
        let store = EntityStore::from_derived(initial, interner, derived, derive_cfg);
        let mut engine = Engine::new(opts, store, featurizer, scorer);
        // The report's `labels` keep the paper's Eq. 5 cut (γ > 0.5) for
        // parity with `dedup_table`; at the default threshold of 0.5 the
        // merges agree with them.
        let base_matches = engine.finish_bootstrap(
            sw,
            |_| (),
            fit.pairs.len(),
            fit.pairs
                .iter()
                .copied()
                .zip(fit.model.gammas().iter().copied()),
        );
        let report = BootstrapReport {
            probabilities: fit.model.gammas().to_vec(),
            labels: fit.model.labels(),
            em_iterations: fit.em_iterations,
            pairs: fit.pairs,
        };
        let pipeline = Self {
            base_len: engine.store.len(),
            base_matches,
            base_digest: records_digest(initial.records()),
            engine,
        };
        Ok((pipeline, report))
    }

    /// Rebuilds a scoring pipeline from a saved [`PipelineSnapshot`] with
    /// an empty store — the `zeroer ingest` cold-start path.
    ///
    /// `threshold` overrides the assignment threshold (pass
    /// `StreamOptions::default().threshold` for the standard 0.5 cut).
    ///
    /// Runtime knobs are not persisted: like `threshold`, the
    /// compaction watermark comes back at its default — callers that
    /// disabled or tuned it must re-apply
    /// [`StreamPipeline::set_compact_watermark`] after restoring. The
    /// metrics flag likewise restarts at its default
    /// ([`StreamPipeline::set_metrics`] re-applies it).
    ///
    /// # Errors
    /// Fails if the snapshot is internally inconsistent (feature layout
    /// vs. model dimensionality), or if it carries tombstones for
    /// streamed (non-persisted) records.
    pub fn from_snapshot(snap: &PipelineSnapshot, threshold: f64) -> Result<Self, StreamError> {
        Ok(Self {
            engine: Engine::restore(
                snap.to_schema(),
                &snap.attr_types,
                &snap.index,
                &snap.model,
                snap.bootstrap_len,
                (&snap.tombstones, snap.epoch),
                threshold,
            )?,
            base_len: snap.bootstrap_len,
            base_matches: snap.bootstrap_pairs.clone(),
            base_digest: snap.bootstrap_digest,
        })
    }

    /// Freezes the current pipeline configuration into a serializable
    /// snapshot, including the bootstrap match decisions (if this
    /// pipeline knows them) so a cold restart can preserve them.
    pub fn snapshot(&self) -> PipelineSnapshot {
        let e = &self.engine;
        let (tombstones, epoch) = e.persisted_tombstones();
        PipelineSnapshot {
            schema: e.store.table().schema().attributes().to_vec(),
            attr_types: e.featurizer.attr_types().to_vec(),
            index: e.index_config().clone(),
            model: e.scorer.snapshot().clone(),
            bootstrap_len: self.base_len,
            bootstrap_pairs: self.base_matches.clone(),
            bootstrap_digest: self.base_digest,
            tombstones,
            epoch,
        }
    }

    /// Seeds a freshly [`StreamPipeline::from_snapshot`]-restored
    /// pipeline with the bootstrap-batch records, replaying the
    /// *persisted batch decisions* instead of re-scoring each record
    /// through the streaming path — the cold-start equivalent of what
    /// [`StreamPipeline::bootstrap`] does in-process. `base` must be the
    /// bootstrap table (same records, same order) the snapshot's model
    /// was fitted on. Persisted retractions are replayed too.
    ///
    /// # Errors
    /// Fails if the store already holds records, the snapshot carries no
    /// bootstrap decisions, or `base` has the wrong record count or
    /// different records.
    pub fn seed_base(&mut self, base: &Table) -> Result<(), StreamError> {
        if self.base_len == 0 {
            return Err(StreamError(
                "snapshot carries no bootstrap decisions to replay".into(),
            ));
        }
        check_base_table("base", base, self.base_len, self.base_digest)?;
        self.engine.seed(&[((), base)], &self.base_matches)
    }

    /// Reconfigures the dead-fraction auto-compaction watermark
    /// (`None` disables it). A runtime knob, not persisted in
    /// snapshots — restored pipelines start at the default.
    pub fn set_compact_watermark(&mut self, watermark: Option<f64>) {
        self.engine.opts.compact_watermark = watermark;
    }

    /// Reconfigures the drift auto-refresh watermark (`None` disables
    /// it; see [`StreamOptions::refresh_watermark`]). A runtime knob,
    /// not persisted in snapshots — restored pipelines start at the
    /// default (off).
    pub fn set_refresh_watermark(&mut self, watermark: Option<f64>) {
        self.engine.opts.refresh_watermark = watermark;
    }

    /// Reconfigures the minimum drift-window size before the refresh
    /// watermark may fire (see [`StreamOptions::refresh_min_records`]).
    pub fn set_refresh_min_records(&mut self, records: usize) {
        self.engine.opts.refresh_min_records = records;
    }

    /// Ingests one record: one derivation pass → incremental blocking →
    /// frozen-model scoring of every candidate → entity assignment. Runs
    /// **zero** EM iterations.
    ///
    /// The record joins the cluster of every candidate scoring above the
    /// threshold (all of them — transitivity then merges those clusters),
    /// or mints a fresh entity when none does.
    ///
    /// # Panics
    /// Panics if the record arity does not match the schema.
    pub fn ingest(&mut self, record: Record) -> IngestOutcome {
        engine::ingest(self, record, ())
    }

    /// Ingests a batch of records in order; later records can match
    /// earlier records of the same batch. The refresh watermark is
    /// checked once, after the whole batch — an ingest call is the
    /// refit boundary, so sequential and parallel ingestion of the same
    /// batch see identical trigger points.
    pub fn ingest_batch(
        &mut self,
        records: impl IntoIterator<Item = Record>,
    ) -> Vec<IngestOutcome> {
        engine::ingest_batch(self, records.into_iter().collect(), (), 1)
    }

    /// Ingests a batch across a pool of `threads` workers, producing
    /// outcomes **bit-identical** to [`StreamPipeline::ingest_batch`] on
    /// the same records: derivation and scoring run on the pool,
    /// candidate generation runs across the index's key-space shards,
    /// and a single writer commits interner symbols and match decisions
    /// in ingest order.
    ///
    /// # Panics
    /// Panics if any record's arity does not match the schema (checked
    /// up front, before any state is touched).
    pub fn ingest_batch_parallel(
        &mut self,
        records: Vec<Record>,
        threads: usize,
    ) -> Vec<IngestOutcome> {
        engine::ingest_batch(self, records, (), threads)
    }

    crate::engine::shared_methods!();
}

impl Pipeline for StreamPipeline {
    type Topology = Dedup;

    fn engine(&self) -> &Engine<Dedup> {
        &self.engine
    }

    fn engine_mut(&mut self) -> &mut Engine<Dedup> {
        &mut self.engine
    }

    fn fit_live(&mut self) -> Result<(SnapshotScorer, RefreshReport), StreamError> {
        // Clones are unavoidable here: the fit re-derives from raw
        // values with its own interner, by design (the refit must see
        // the data exactly as a cold bootstrap would).
        let e = &self.engine;
        let mut live = Table::new(e.store.table().name(), e.store.table().schema().clone());
        for (_, r) in e.live_records() {
            live.push(r.clone());
        }
        let fit = fit_dedup(&live, &e.opts, Some(e.featurizer.attr_types()))?;
        let summary = RefreshReport {
            records: live.len(),
            pairs: fit.pairs.len(),
            em_iterations: fit.em_iterations,
            ..RefreshReport::default()
        };
        Ok((fit.snapshot.scorer()?, summary))
    }

    fn snapshot_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Checks a `seed_base` table against the persisted bootstrap length
/// and digest (0 = unknown digest, length only).
pub(crate) fn check_base_table(
    what: &str,
    table: &Table,
    len: usize,
    digest: u64,
) -> Result<(), StreamError> {
    if table.len() != len {
        return Err(StreamError(format!(
            "{what} table has {} records but the snapshot was bootstrapped on {len}",
            table.len()
        )));
    }
    if digest != 0 && records_digest(table.records()) != digest {
        return Err(StreamError(format!(
            "{what} table does not match the records the snapshot was bootstrapped on \
             (same length, different or reordered records); the persisted batch \
             decisions cannot be replayed onto it"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroer_tabular::csv::read_table;

    fn base_table() -> Table {
        read_table(
            "base",
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

    fn rec(id: u32, name: &str, city: &str) -> Record {
        Record::new(id, vec![name.into(), city.into()])
    }

    #[test]
    fn bootstrap_then_ingest_assigns_duplicates() {
        let (mut p, report) =
            StreamPipeline::bootstrap(&base_table(), StreamOptions::default()).expect("bootstrap");
        assert!(report.em_iterations >= 1);
        assert_eq!(p.len(), 6);
        // The two Golden Dragon rows are a bootstrap-time cluster.
        assert!(p.store().same_entity(0, 1), "clusters: {:?}", p.clusters());

        let out = p.ingest(rec(100, "Golden Dragon Palace", "new york"));
        assert!(!out.is_new_entity(), "exact duplicate must match");
        assert_eq!(
            p.store().find_readonly(out.index),
            p.store().find_readonly(0)
        );

        let fresh = p.ingest(rec(101, "Totally Unseen Steakhouse", "miami"));
        assert!(fresh.is_new_entity());
        assert_eq!(fresh.cluster, fresh.index);
    }

    #[test]
    fn ingest_matches_within_a_batch() {
        let (mut p, _) =
            StreamPipeline::bootstrap(&base_table(), StreamOptions::default()).unwrap();
        let outs = p.ingest_batch(vec![
            rec(200, "Crimson Lotus Noodle Bar", "seattle"),
            rec(201, "Crimson Lotus Noodle Bar", "seattle"),
        ]);
        assert!(outs[0].is_new_entity());
        assert!(
            !outs[1].is_new_entity(),
            "second copy must match the first copy ingested in the same batch"
        );
        assert!(p.store().same_entity(outs[0].index, outs[1].index));
    }

    #[test]
    fn snapshot_round_trip_preserves_scoring() {
        let (mut live, _) =
            StreamPipeline::bootstrap(&base_table(), StreamOptions::default()).unwrap();
        let snap = live.snapshot();
        let reloaded = PipelineSnapshot::from_json(&snap.to_json()).unwrap();
        let mut cold = StreamPipeline::from_snapshot(&reloaded, 0.5).unwrap();

        // Replay the same records through both pipelines; decisions and
        // posteriors must agree exactly.
        for r in base_table().records() {
            cold.ingest(r.clone());
        }
        let probe = rec(300, "Golden Dragon Palace", "new york");
        let a = live.ingest(probe.clone());
        let b = cold.ingest(probe);
        assert_eq!(a.matches.len(), b.matches.len());
        for ((ca, pa), (cb, pb)) in a.matches.iter().zip(&b.matches) {
            assert_eq!(ca, cb);
            assert!((pa - pb).abs() < 1e-12, "posterior drift: {pa} vs {pb}");
        }
    }

    #[test]
    fn empty_bootstrap_is_an_error() {
        // No shared tokens and no shared padded 4-grams (distinct first
        // and last characters, no common interior runs).
        let t = read_table("t", "name\nnorth\nquail\n").unwrap();
        assert!(StreamPipeline::bootstrap(&t, StreamOptions::default()).is_err());
    }

    #[test]
    fn retract_undoes_a_match_and_hides_the_record_from_candidates() {
        let (mut p, _) =
            StreamPipeline::bootstrap(&base_table(), StreamOptions::default()).unwrap();
        let out = p.ingest(rec(100, "Golden Dragon Palace", "new york"));
        assert!(!out.is_new_entity());
        let epoch0 = p.epoch();

        let report = p.retract(out.index).expect("live record retracts");
        assert!(report.component_size >= 2, "it sat in the Dragon cluster");
        assert!(report.postings_tombstoned > 0);
        assert!(p.epoch() > epoch0);
        assert!(p.store().is_retracted(out.index));
        // The bootstrap-time Golden Dragon pair survives the rebuild.
        assert!(p.store().same_entity(0, 1));

        // A fresh ingest never sees the retracted record as a candidate
        // or match, but still matches the live duplicates.
        let again = p.ingest(rec(101, "Golden Dragon Palace", "new york"));
        assert!(!again.is_new_entity());
        assert!(
            again.matches.iter().all(|&(c, _)| c != out.index),
            "retracted record must not match: {:?}",
            again.matches
        );
    }

    #[test]
    fn retract_errors_are_clean_and_stateless() {
        let (mut p, _) =
            StreamPipeline::bootstrap(&base_table(), StreamOptions::default()).unwrap();
        let epoch0 = p.epoch();
        assert!(p.retract(999).is_err(), "unknown index");
        p.retract(2).unwrap();
        let err = p.retract(2).expect_err("double retraction");
        assert!(err.to_string().contains("already retracted"), "{err}");
        assert_eq!(p.epoch(), epoch0 + 1, "failed calls must not advance");

        // Batch validation is all-or-nothing.
        let err = p.retract_batch(&[3, 3]).expect_err("duplicate id");
        assert!(err.to_string().contains("twice"), "{err}");
        assert!(!p.store().is_retracted(3), "no partial application");
    }

    #[test]
    fn update_replaces_a_record_under_a_fresh_index() {
        let (mut p, _) =
            StreamPipeline::bootstrap(&base_table(), StreamOptions::default()).unwrap();
        let len0 = p.len();
        let out = p
            .update(2, rec(200, "Blue Sky Tavern and Grill", "austin"))
            .expect("update");
        assert_eq!(out.index, len0, "the new version gets a fresh slot");
        assert!(p.store().is_retracted(2));
        assert_eq!(p.store().live_len(), len0, "one out, one in");

        // A replacement that cannot be ingested must not destroy the
        // old version: update is atomic, not retract-then-maybe-ingest.
        let err = p
            .update(3, Record::new(201, vec!["only one value".into()]))
            .expect_err("arity mismatch");
        assert!(err.to_string().contains("arity"), "{err}");
        assert!(!p.store().is_retracted(3), "record 3 must survive");
    }

    #[test]
    fn compact_reclaims_dead_postings_and_reports_bytes() {
        let opts = StreamOptions {
            compact_watermark: None, // manual compaction only
            ..Default::default()
        };
        let (mut p, _) = StreamPipeline::bootstrap(&base_table(), opts).unwrap();
        // Retract 2 of 6 records (≥ 30 % of the store).
        p.retract(2).unwrap();
        p.retract(3).unwrap();
        let before = p.stats();
        assert!(before.index.dead_postings() > 0);
        let clusters_before = p.clusters();

        let report = p.compact();
        assert!(report.index.postings_dropped > 0);
        assert!(report.bytes_reclaimed() > 0);
        assert!(report.store.derived_bytes_freed > 0);
        let after = p.stats();
        assert_eq!(after.index.dead_postings(), 0);
        assert_eq!(after.index.retired_buckets(), 0);
        assert_eq!(after.epoch, report.epoch);
        assert_eq!(
            p.clusters(),
            clusters_before,
            "compaction never changes cluster semantics"
        );

        // Ingest still works against the compacted index.
        let out = p.ingest(rec(300, "Golden Dragon Palace", "new york"));
        assert!(!out.is_new_entity());
    }

    #[test]
    fn watermark_triggers_automatic_compaction() {
        let opts = StreamOptions {
            compact_watermark: Some(0.1), // compact eagerly
            ..Default::default()
        };
        let (mut p, _) = StreamPipeline::bootstrap(&base_table(), opts).unwrap();
        let report = p.retract(4).expect("retract");
        let auto = report
            .auto_compaction
            .expect("a 10% watermark must fire on the first retraction");
        assert!(auto.index.postings_dropped > 0);
        assert_eq!(p.stats().index.dead_postings(), 0);
    }

    #[test]
    fn snapshot_round_trips_tombstones_and_epoch() {
        let (mut live, _) =
            StreamPipeline::bootstrap(&base_table(), StreamOptions::default()).unwrap();
        live.retract(1).unwrap();
        live.retract(4).unwrap();
        let snap = live.snapshot();
        assert_eq!(snap.tombstones, vec![1, 4]);
        assert_eq!(snap.epoch, live.epoch());

        let reloaded = PipelineSnapshot::from_json(&snap.to_json()).expect("round-trips");
        let mut cold = StreamPipeline::from_snapshot(&reloaded, 0.5).unwrap();
        // Retraction before seeding is refused: the persisted indices
        // refer to bootstrap records that are not loaded yet.
        assert!(cold.retract(0).is_err());
        cold.seed_base(&base_table()).expect("seed with tombstones");
        assert_eq!(cold.epoch(), live.epoch());
        assert!(cold.store().is_retracted(1));
        assert!(cold.store().is_retracted(4));
        assert_eq!(cold.clusters(), live.clusters());

        // Future behavior is identical too.
        let a = live.ingest(rec(400, "Golden Dragon Palace", "new york"));
        let b = cold.ingest(rec(400, "Golden Dragon Palace", "new york"));
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.matches, b.matches);
    }

    #[test]
    fn stats_report_interner_and_blocking_counters() {
        let (mut p, report) =
            StreamPipeline::bootstrap(&base_table(), StreamOptions::default()).unwrap();
        let s0 = p.stats();
        assert!(s0.interned_tokens > 0);
        assert!(s0.interned_bytes > 0);
        assert_eq!(s0.candidate_pairs, report.pairs.len());
        assert!(s0.index.token.live > 0);

        p.ingest(rec(400, "Golden Dragon Palace", "new york"));
        let s1 = p.stats();
        assert!(
            s1.candidate_pairs > s0.candidate_pairs,
            "ingest candidates are counted"
        );
    }
}
