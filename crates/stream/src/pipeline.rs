//! The dedup pipeline ([`StreamPipeline`], the [`Dedup`] topology of
//! [`Pipeline`]), plus the options, errors and reports both topologies
//! share: bootstrap once, then ingest forever — sequentially one record
//! at a time, or in parallel batches across a worker pool (see
//! [`StreamPipeline::ingest_batch_parallel`]) — and retract records
//! again ([`Pipeline::retract`]) with online compaction
//! ([`Pipeline::compact`], plus an automatic dead-fraction watermark) so
//! long-lived nodes never need a stop-the-world rebuild.

use crate::engine::{Pipeline, Topology};
use crate::index::{CompactionDelta, IndexConfig, IndexStats};
use crate::legs::build_dedup_leg;
use crate::link::Side;
use crate::snapshot::SnapshotModel;
use crate::store::{EntityStore, StoreCompaction};
use zeroer_core::{ModelSnapshot, ZeroErConfig};
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
    /// The overlap floor of the standard blocking rule: a candidate pair
    /// needs `max(min_token_overlap, 2)` shared keys. At 1 (the default)
    /// token and q-gram keys count together; ≥ 2 is overlap blocking on
    /// tokens alone. Must be at least 1: the bootstraps refuse 0.
    pub min_token_overlap: usize,
    /// q-gram size for the q-gram blocking leg.
    pub qgram: usize,
    /// Stop-word bucket cap for both blocking legs. Must be at least 1:
    /// at 0 every bucket would retire at its first posting, so the
    /// bootstraps refuse it.
    pub max_bucket: usize,
    /// Posterior threshold for assigning an incoming record to an
    /// existing entity. Strictly-above semantics (`p > threshold`),
    /// matching the paper's Eq. 5 labeling rule `γ > 0.5` — note the
    /// CLI's `--threshold` *display* filter on the batch paths is `>=`.
    pub threshold: f64,
    /// Dead-fraction watermark for automatic compaction: when, after a
    /// retraction, at least this fraction of index postings is
    /// tombstoned, the pipeline compacts itself. `None` disables
    /// auto-compaction ([`Pipeline::compact`] stays available).
    pub compact_watermark: Option<f64>,
    /// Drift watermark for automatic model refresh: when, at an ingest
    /// boundary, the [`crate::DriftMonitor`] divergence (max normalized
    /// shift across the feature dimensions and the posterior match rate,
    /// in baseline-spread units) reaches this value, the pipeline re-fits
    /// the model over its live records ([`Pipeline::refit`]) and
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
    /// ([`Pipeline::set_metrics`] is the runtime knob).
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
    /// Refuses options no pipeline can block with: an overlap floor of 0.
    pub(crate) fn check(&self) -> Result<(), StreamError> {
        if self.min_token_overlap == 0 {
            return Err(StreamError("min_token_overlap must be at least 1".into()));
        }
        if self.max_bucket == 0 {
            return Err(StreamError("max_bucket must be at least 1".into()));
        }
        Ok(())
    }

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

/// What one retraction did (see [`Pipeline::retract`]).
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

/// What one compaction pass reclaimed (see [`Pipeline::compact`]).
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

/// What one model refresh did (see [`Pipeline::refit`]).
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
    /// manual [`Pipeline::refit`] calls).
    pub auto: bool,
    /// Model generation after the swap (bootstrap model = 0).
    pub generation: u64,
}

/// Dedup topology: one index, which each arrival probes and joins.
pub struct Dedup;

impl crate::engine::sealed::Sealed for Dedup {}

impl Topology for Dedup {
    type Tag = ();
    const KIND: &'static str = "dedup";
    const METRICS: &'static str = "stream";
    const TABLES: &'static [(&'static str, ())] = &[("base", ())];

    fn tag(side: Option<Side>) -> Result<(), StreamError> {
        match side {
            None => Ok(()),
            Some(s) => Err(StreamError(format!(
                "this is a dedup pipeline; records carry no side (got {:?})",
                s.name()
            ))),
        }
    }
    fn new_on_left((): ()) -> bool {
        false
    }
    fn route((): ()) -> (usize, usize) {
        (0, 0)
    }

    fn fit_live(p: &StreamPipeline) -> Result<(SnapshotModel, RefreshReport), StreamError> {
        // Clones are unavoidable here: the fit re-derives from raw
        // values with its own interner, by design (the refit must see
        // the data exactly as a cold bootstrap would).
        let mut live = Table::new(p.store.table().name(), p.store.table().schema().clone());
        for (_, r) in p.live_records() {
            live.push(r.clone());
        }
        let fit = fit_dedup(&live, &p.opts, Some(p.featurizer.attr_types()))?;
        let summary = RefreshReport {
            records: live.len(),
            pairs: fit.pairs.len(),
            em_iterations: fit.em_iterations,
            ..RefreshReport::default()
        };
        Ok((SnapshotModel::Dedup(fit.snapshot), summary))
    }
}

/// The dedup pipeline: one table, whose records are blocked and scored
/// against each other as they arrive (see [`Pipeline`]).
pub type StreamPipeline = Pipeline<Dedup>;

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
    /// Posteriors of `pairs`.
    gammas: Vec<f64>,
    snapshot: ModelSnapshot,
    em_iterations: usize,
}

/// The dedup fit [`StreamPipeline::bootstrap`] and
/// [`Pipeline::refit`] share: the batch recipe
/// ([`build_dedup_leg`], the one `dedup_table` runs) plus the freeze.
/// `frozen` is the feature layout a refit must keep (`None` at
/// bootstrap).
fn fit_dedup(
    table: &Table,
    opts: &StreamOptions,
    frozen: Option<&[AttrType]>,
) -> Result<DedupFit, StreamError> {
    let prep = build_dedup_leg(table, &opts.index_config());
    if frozen.is_some_and(|types| prep.fz.attr_types() != types) {
        return Err(structural_drift());
    }
    let Some(leg) = prep.leg else {
        return Err(StreamError(
            "blocking produced no candidate pairs; nothing to fit a model on".into(),
        ));
    };
    let (model, summary, gammas) = leg.fit_dedup(&opts.config);
    let snapshot =
        ModelSnapshot::capture_checked(&model, &leg.ranges, &leg.impute_means, &leg.names)
            .ok_or_else(|| {
                StreamError(
                    "the fit converged to non-finite model parameters (degenerate records)".into(),
                )
            })?;
    Ok(DedupFit {
        fz: prep.fz,
        pairs: leg.pairs().to_vec(),
        gammas,
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
    /// Fails when `min_token_overlap` or `max_bucket` is 0, when
    /// `initial` yields no candidate pairs (nothing to fit), or when the
    /// fit is too degenerate to freeze.
    pub fn bootstrap(
        initial: &Table,
        opts: StreamOptions,
    ) -> Result<(Self, BootstrapReport), StreamError> {
        opts.check()?;
        let sw = Stopwatch::new(opts.metrics);
        let fit = fit_dedup(initial, &opts, None)?;
        let featurizer = BatchFeaturizer::new(fit.fz.attr_types());

        // Hand the featurizer's derivation (and interner) to the store —
        // no record is derived twice — and seed the blocking index from
        // the derived keys.
        let (interner, derived) = fit.fz.into_parts();
        let derive_cfg = opts.index_config().derive_config();
        let store = EntityStore::from_derived(initial, interner, derived, derive_cfg);
        let mut pipeline = Self::new(opts, store, featurizer, SnapshotModel::Dedup(fit.snapshot))?;
        // The report's `labels` keep the paper's Eq. 5 cut (γ > 0.5) for
        // parity with `dedup_table`; at the default threshold of 0.5 the
        // merges agree with them.
        pipeline.finish_bootstrap(
            sw,
            &[initial],
            fit.pairs.len(),
            fit.pairs.iter().copied().zip(fit.gammas.iter().copied()),
        );
        let report = BootstrapReport {
            labels: fit.gammas.iter().map(|&g| g > 0.5).collect(),
            probabilities: fit.gammas,
            em_iterations: fit.em_iterations,
            pairs: fit.pairs,
        };
        Ok((pipeline, report))
    }

    /// [`Pipeline::seed`] with the one bootstrap table: `base` must be the
    /// table (same records, same order) the snapshot's model was fitted
    /// on.
    ///
    /// # Errors
    /// Fails like [`Pipeline::seed`].
    pub fn seed_base(&mut self, base: &Table) -> Result<(), StreamError> {
        self.seed(&[base])
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
        self.ingest_one(record, ())
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
        self.ingest_tagged(records.into_iter().collect(), (), 1)
    }

    /// Ingests a batch across a pool of `threads` workers, producing
    /// outcomes **bit-identical** to [`StreamPipeline::ingest_batch`] on
    /// the same records (see [`Pipeline::ingest_tagged`]).
    ///
    /// # Panics
    /// Panics if any record's arity does not match the schema (checked
    /// up front, before any state is touched).
    pub fn ingest_batch_parallel(
        &mut self,
        records: Vec<Record>,
        threads: usize,
    ) -> Vec<IngestOutcome> {
        self.ingest_tagged(records, (), threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineSnapshot;
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
