//! Incremental entity resolution on top of the batch ZeroER substrate.
//!
//! The batch pipeline (`zeroer::pipeline`) recomputes everything per run:
//! blocking → feature generation → EM. Production serving needs the
//! complementary *online* path — ingest new records as they arrive, find
//! candidates against what is already resolved, and score them with an
//! already-fitted model, without ever re-running EM. This crate provides
//! that path in four pieces:
//!
//! * [`EntityStore`] — ingested records plus a union-find cluster index
//!   with cluster-representative lookup (transitivity is structural:
//!   merging entities merges all their members).
//! * [`IncrementalIndex`] — the streaming blocking index: online
//!   inverted token + q-gram indexes that mirror the batch standard
//!   recipe (a pair needs two shared keys,
//!   [`zeroer_blocking::standard_rule`], plus the stop-word frequency
//!   cap) but support `insert(record) → candidates` in one pass, plus a
//!   read-only probe for linkage and resolves. It consumes the
//!   derivation's [`zeroer_textsim::derive::KeySet`], the keys batch
//!   blocking reads, and the batch rule, so the two cannot drift. A
//!   pipeline holds one per bootstrap table.
//! * [`PipelineSnapshot`] / [`zeroer_core::ModelSnapshot`] — a JSON
//!   freeze of a fitted generative model (means, covariances, prior)
//!   plus the feature replay state (per-column normalization ranges,
//!   imputation means, attribute types) and the blocking configuration.
//! * [`Pipeline`] — the pipeline: [`StreamPipeline::bootstrap`] fits
//!   once on an initial batch, then [`StreamPipeline::ingest`] processes
//!   records with frozen-model scoring only, assigning each to an
//!   existing entity or minting a new one. Records can be withdrawn
//!   again ([`Pipeline::retract`] / [`Pipeline::update`]): tombstones
//!   hide them from candidates, the match-decision log rebuilds the
//!   affected component's clusters, and online compaction
//!   ([`Pipeline::compact`], automatic past a dead-fraction watermark)
//!   reclaims the dead index postings — no stop-the-world rebuild,
//!   record indices stay stable forever.
//!
//! [`Pipeline`] is generic over a sealed [`Topology`]: [`StreamPipeline`]
//! is the [`Dedup`] topology (one index that arrivals probe and join)
//! and [`LinkPipeline`] the [`Linkage`] one (`T ≠ T'`, side-tagged
//! records, one index per side). Ingest, retraction, compaction,
//! drift-triggered refit, snapshots and the read/write split
//! ([`SplitPipeline`]) are implemented once for both; the aliases add
//! only their bootstrap, `seed_base` and side-tagged ingest.
//!
//! ```
//! use zeroer_stream::{StreamOptions, StreamPipeline};
//! use zeroer_tabular::csv::read_table;
//! use zeroer_tabular::Record;
//!
//! let initial = read_table(
//!     "seed",
//!     "name,city\n\
//!      Golden Dragon Palace,new york\n\
//!      Golden Dragon Palce,new york\n\
//!      Blue Sky Tavern,austin\n\
//!      Rustic Oak Kitchen,denver\n\
//!      Harbor View Bistro,portland\n",
//! )
//! .unwrap();
//! let (mut pipeline, _report) =
//!     StreamPipeline::bootstrap(&initial, StreamOptions::default()).unwrap();
//!
//! // Online: a near-duplicate of an existing entity joins its cluster…
//! let out = pipeline.ingest(Record::new(10, vec!["Golden Dragon Palace".into(), "ny".into()]));
//! assert!(!out.is_new_entity());
//! // …and an unseen restaurant mints a fresh entity. No EM either way.
//! let out = pipeline.ingest(Record::new(11, vec!["Lunar Gate Cantina".into(), "reno".into()]));
//! assert!(out.is_new_entity());
//! ```

#![warn(missing_docs)]

pub mod drift;
mod engine;
pub mod index;
pub mod legs;
pub mod link;
mod meters;
pub mod pipeline;
pub mod snapshot;
pub mod split;
pub mod store;

pub use drift::DriftMonitor;
pub use engine::{Pipeline, Topology};
pub use index::{CompactionDelta, IncrementalIndex, IndexConfig, IndexStats, KeyCounts, LegStats};
pub use legs::{build_dedup_leg, build_linkage_legs, DedupLeg, LegReplay, LegTriple, LinkageLegs};
pub use link::{LinkBootstrapReport, LinkPipeline, Linkage, Side};
pub use pipeline::{
    render_stats, BootstrapReport, CompactionReport, Dedup, IngestOutcome, RefreshReport,
    RetractionReport, StreamError, StreamOptions, StreamPipeline, StreamStats,
};
pub use snapshot::{BaseTable, PipelineSnapshot, SnapshotModel};
pub use split::{ReadHandle, ResolveOutcome, SplitPipeline, WriteHandle};
pub use store::{EntityStore, RetractOutcome, StoreCompaction};
