//! Pre-resolved metric handles for the streaming pipelines.
//!
//! [`StageMeters`] bundles every counter/histogram a pipeline touches,
//! resolved from the `zeroer-obs` registry **once** at pipeline
//! construction and parameterized by the topology's prefix (`"stream"`
//! for [`crate::StreamPipeline`], `"link"` for [`crate::LinkPipeline`]).
//! The pipeline holds an `Option<StageMeters>` — `None` when
//! [`crate::StreamOptions::metrics`] is off — so a disabled pipeline
//! pays one branch per stage boundary and never touches the registry
//! on the hot path. The struct is `Copy` (all fields are `&'static`
//! handles to atomics), so workers can carry it into scoped threads.
//!
//! The full metric-name catalog lives in `crates/obs/README.md`.

use zeroer_obs::{Counter, Histogram};

/// Every metric handle one streaming pipeline records into.
#[derive(Clone, Copy)]
pub(crate) struct StageMeters {
    // Per-record stage timers (`derive` and `block` on both ingest paths).
    pub derive: &'static Histogram,
    pub block: &'static Histogram,
    pub score: &'static Histogram,
    pub decide: &'static Histogram,
    pub ingest: &'static Histogram,
    // Parallel per-batch phase timers.
    pub batch: &'static Histogram,
    pub batch_score: &'static Histogram,
    pub batch_decide: &'static Histogram,
    /// Candidate pairs per parallel batch (a count distribution, not
    /// a timer).
    pub batch_candidates: &'static Histogram,
    /// Candidates scored per scoring call (a count distribution, not a
    /// timer): one sample per record ingested or resolved,
    /// zero-candidate records included.
    pub score_batch_candidates: &'static Histogram,
    /// Time scoring workers spend acquiring the single-writer work
    /// queue lock (one sample per queue pop).
    pub queue_wait: &'static Histogram,
    // Lifecycle timers.
    pub bootstrap: &'static Histogram,
    pub seed: &'static Histogram,
    pub retract: &'static Histogram,
    pub compact: &'static Histogram,
    /// One model refit — live-record re-derivation, the EM fit, and the
    /// scorer swap (`{p}.refresh.ns`).
    pub refresh: &'static Histogram,
    // Read/write split.
    /// One read-view clone + publish on the split's writer.
    pub publish: &'static Histogram,
    /// Records per coalesced ingest micro-batch on the split's writer
    /// (a count distribution).
    pub admit_records: &'static Histogram,
    // Totals.
    pub records: &'static Counter,
    pub candidates: &'static Counter,
    pub matches: &'static Counter,
    pub retractions: &'static Counter,
    pub compactions: &'static Counter,
    pub reclaimed_bytes: &'static Counter,
    /// Successful refits (manual + drift-watermark-triggered).
    pub refreshes: &'static Counter,
}

impl StageMeters {
    /// Resolves the handles for `prefix` (`"stream"` or `"link"`).
    pub fn new(prefix: &str) -> Self {
        let h = |stage: &str| zeroer_obs::histogram(&format!("{prefix}.{stage}"));
        let c = |stage: &str| zeroer_obs::counter(&format!("{prefix}.{stage}"));
        StageMeters {
            derive: h("derive.ns"),
            block: h("block.ns"),
            score: h("score.ns"),
            decide: h("decide.ns"),
            ingest: h("ingest.ns"),
            batch: h("batch.ns"),
            batch_score: h("batch.score.ns"),
            batch_decide: h("batch.decide.ns"),
            batch_candidates: h("batch.candidates"),
            score_batch_candidates: h("score.batch_candidates"),
            queue_wait: h("queue_wait.ns"),
            bootstrap: h("bootstrap.ns"),
            seed: h("seed.ns"),
            retract: h("retract.ns"),
            compact: h("compact.ns"),
            refresh: h("refresh.ns"),
            publish: h("publish.ns"),
            admit_records: h("admit.batch_records"),
            records: c("records"),
            candidates: c("candidates"),
            matches: c("matches"),
            retractions: c("retractions"),
            compactions: c("compactions"),
            reclaimed_bytes: c("compact.reclaimed_bytes"),
            refreshes: c("refreshes"),
        }
    }

    /// Meters for a pipeline with the given options — `None` when
    /// metrics are disabled.
    pub fn from_flag(metrics: bool, prefix: &str) -> Option<Self> {
        metrics.then(|| Self::new(prefix))
    }
}
