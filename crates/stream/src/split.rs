//! The explicit read/write split over a streaming [`Pipeline`] of either
//! topology.
//!
//! A long-running resolution service interleaves two very different
//! workloads over the same state: **resolve** queries ("which entity
//! would this record join?") that must answer concurrently and never
//! block, and **writes** (ingest/retract/compact) that must preserve the
//! single-writer decision order proven bit-identical in the batch-ingest
//! suites. This module splits a pipeline into those two halves:
//!
//! * **Read path** — [`ReadHandle`]: pins an immutable, epoch-tagged
//!   view of the pipeline (store + indexes + frozen scorer) and answers
//!   resolves through the same lock-free [`crate::IncrementalIndex::probe_live`] +
//!   `score_candidates` code the ingest path uses — identical
//!   candidates, identical posteriors (to `f64::to_bits`), but **no**
//!   locks shared with the writer and no mutation. Any number of
//!   handles resolve concurrently; each is pinned until it explicitly
//!   [`ReadHandle::refresh`]es, so a resolve can never observe a
//!   half-applied write. Linkage resolves take the record's [`Side`].
//! * **Write path** — [`WriteHandle`] → admission queue → one writer
//!   thread. Writes are admitted in submission order, consecutive
//!   ingest requests with the same side are coalesced into one
//!   micro-batch, and the batch is applied through the pipeline's
//!   parallel batch ingest — the existing single-writer protocol — so
//!   outcomes are bit-identical to submitting the same records one at a
//!   time to a lone pipeline. After each drained queue batch the writer
//!   publishes **one** fresh view covering every write it applied
//!   (success replies are held back until after that publish, so
//!   read-your-writes still holds); readers pick it up at their next
//!   refresh.
//!
//! The view swap is an atomic `Arc` replacement behind a brief
//! [`RwLock`] critical section (pointer assignment only — never held
//! across scoring or ingest work), which makes this the seam the
//! snapshot lifecycle slots into: [`WriteHandle::refresh`] re-fits the
//! model on the writer and the swapped scorer rides the very same
//! publication — concurrent resolvers see either the old model or the
//! new one, never a torn mix.
//!
//! Publishing clones the live read state (store, indexes, scorer —
//! O(live records + postings)). That is deliberate for this growth
//! stage: it keeps the writer's working state completely private (no
//! reader can alias it), and the clone cost is measured as
//! `{stream,link}.publish.ns` so a cheaper persistent-structure refresh
//! has a baseline to beat.

use crate::engine::{check_arity, score_candidates, Pipeline, Topology};
use crate::index::{IncrementalIndex, KeyCounts};
use crate::link::{Linkage, Side};
use crate::pipeline::{Dedup, IngestOutcome, StreamError};
use crate::store::EntityStore;
use crate::{CompactionReport, RetractionReport};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use zeroer_core::{ScoreBatch, SnapshotScorer};
use zeroer_features::{BatchFeaturizer, FillScratch};
use zeroer_obs::Histogram;
use zeroer_tabular::Record;
use zeroer_textsim::derive::Deriver;

/// An immutable, epoch-tagged view of a pipeline's read state: the
/// entity store, the topology's blocking indexes, and the frozen
/// scorer. Shared via `Arc` among [`ReadHandle`]s and never mutated
/// after publication.
pub(crate) struct ReadView {
    /// Pipeline epoch at pin time (advances on retraction/compaction).
    pub(crate) epoch: u64,
    /// Publication sequence number (0 for the initial view); lets a
    /// handle detect staleness without comparing state.
    pub(crate) version: u64,
    pub(crate) store: EntityStore,
    pub(crate) indexes: Vec<IncrementalIndex>,
    pub(crate) featurizer: BatchFeaturizer,
    pub(crate) scorer: SnapshotScorer,
    pub(crate) threshold: f64,
    /// The `{p}.score.batch_candidates` histogram handle, pinned at
    /// publication time; `None` when the pipeline's metrics are off.
    pub(crate) score_meter: Option<&'static Histogram>,
}

/// What a resolve query found — the read-only analogue of
/// [`IngestOutcome`], answered against one pinned view without
/// admitting the record.
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// Epoch of the view the query was answered against.
    pub epoch: u64,
    /// Candidates the blocking probe produced (live records only).
    pub candidates: usize,
    /// Candidates scoring above the threshold as `(record index,
    /// posterior)`, sorted by descending posterior — bit-identical to
    /// what ingesting this record would report.
    pub matches: Vec<(usize, f64)>,
    /// Cluster representative the record would join (the best match's
    /// entity), or `None` if it would mint a new entity.
    pub cluster: Option<usize>,
}

impl ResolveOutcome {
    /// Whether the record would mint a new entity.
    pub fn is_new_entity(&self) -> bool {
        self.matches.is_empty()
    }
}

/// A shareable, epoch-pinned resolver over a pipeline's published read
/// state.
///
/// Each handle owns a private deriver seeded from the view's interner
/// (an *overlay*: tokens already interned at pin time keep their exact
/// symbols, tokens first seen in a query get handle-local symbols that
/// cannot collide with any index posting), plus a private scratch
/// buffer — so concurrent handles share only the immutable view and
/// never contend. Once the handle-local tokens outnumber both the
/// view's own and a fixed floor (`OVERLAY_FLOOR`), the overlay starts
/// over from the view's interner, so resolve-only traffic cannot grow
/// it without bound. Outcomes never depend on how the handle numbers
/// its own tokens, so starting over changes none.
///
/// The handle stays pinned to its view until [`ReadHandle::refresh`] is
/// called; resolves are deterministic against the pinned epoch even
/// while the write path is busy publishing newer views.
pub struct ReadHandle<T: Topology = Dedup> {
    view: Arc<ReadView>,
    deriver: Deriver,
    batch: ScoreBatch,
    scratch: FillScratch,
    key_counts: KeyCounts,
    /// Present when the handle came from a [`SplitPipeline`] (and can
    /// therefore refresh); `None` for a standalone pin.
    shared: Option<Arc<Shared<T>>>,
}

impl<T: Topology> Clone for ReadHandle<T> {
    fn clone(&self) -> Self {
        Self {
            view: Arc::clone(&self.view),
            deriver: self.deriver.clone(),
            batch: ScoreBatch::new(),
            scratch: FillScratch::new(),
            key_counts: KeyCounts::new(),
            shared: self.shared.clone(),
        }
    }
}

/// The handle-local token count an overlay may always reach before it
/// starts over (see [`ReadHandle`]).
const OVERLAY_FLOOR: usize = 1 << 12;

/// A fresh overlay deriver over `view`'s interner.
fn overlay(view: &ReadView) -> Deriver {
    Deriver::with_interner(view.store.interner().clone(), view.store.derive_config())
}

impl<T: Topology> ReadHandle<T> {
    fn pin(view: Arc<ReadView>, shared: Option<Arc<Shared<T>>>) -> Self {
        Self {
            deriver: overlay(&view),
            view,
            batch: ScoreBatch::new(),
            scratch: FillScratch::new(),
            key_counts: KeyCounts::new(),
            shared,
        }
    }

    /// A standalone handle (version 0, cannot refresh) over `pipeline`'s
    /// current read state.
    pub(crate) fn pin_standalone(pipeline: &Pipeline<T>) -> Self {
        Self::pin(Arc::new(pipeline.read_view()), None)
    }

    /// Epoch of the pinned view.
    pub fn epoch(&self) -> u64 {
        self.view.epoch
    }

    /// Publication sequence number of the pinned view.
    pub fn version(&self) -> u64 {
        self.view.version
    }

    /// Records visible in the pinned view (tombstoned slots included,
    /// exactly like the pipeline's `len`).
    pub fn len(&self) -> usize {
        self.view.store.len()
    }

    /// Whether the pinned view is empty.
    pub fn is_empty(&self) -> bool {
        self.view.store.is_empty()
    }

    /// Schema arity resolve queries must match.
    pub fn arity(&self) -> usize {
        self.view.store.table().schema().arity()
    }

    /// Resolves one record against the pinned view: derive → lock-free
    /// candidate probe through the topology → frozen-model scoring — the
    /// exact candidate rule and scoring code of ingest, minus the
    /// insertion. Nothing is admitted and no writer state is touched.
    ///
    /// The side must be present exactly for a linkage pipeline. This is
    /// the serve layer's entry point — it never panics on bad input.
    ///
    /// # Errors
    /// Fails on a side that does not fit the pipeline, or an arity
    /// mismatch.
    pub fn resolve_side(
        &mut self,
        record: &Record,
        side: Option<Side>,
    ) -> Result<ResolveOutcome, StreamError> {
        let tag = T::tag(side)?;
        check_arity(record, self.arity())?;
        let view = &*self.view;
        let derived = self.deriver.derive(&record.values);
        let candidates = view.indexes[T::route(tag).0].probe_live(
            derived.keys(),
            view.store.tombstones(),
            &mut self.key_counts,
        );
        let store = &view.store;
        let matches = score_candidates(
            &view.featurizer,
            &view.scorer,
            self.deriver.interner(),
            view.threshold,
            T::new_on_left(tag),
            &candidates,
            |c| store.derived(c),
            &derived,
            &mut self.batch,
            &mut self.scratch,
            view.score_meter,
        );
        let own = store.interner().len();
        if self.deriver.interner().len() - own > own.max(OVERLAY_FLOOR) {
            self.deriver = overlay(view);
        }
        Ok(ResolveOutcome {
            epoch: view.epoch,
            candidates: candidates.len(),
            cluster: matches.first().map(|&(c, _)| store.find_readonly(c)),
            matches,
        })
    }

    /// Re-pins the handle to the latest published view, if any newer
    /// one exists. Returns whether the view changed. Standalone handles
    /// (pinned directly off a pipeline) have nothing to refresh from and
    /// always return `false`.
    pub fn refresh(&mut self) -> bool {
        let Some(shared) = &self.shared else {
            return false;
        };
        let latest = read_lock(&shared.view);
        if latest.version == self.view.version {
            return false;
        }
        self.deriver = overlay(&latest);
        self.view = latest;
        true
    }
}

impl ReadHandle<Dedup> {
    /// Resolves one record against the pinned view: derive → lock-free
    /// candidate probe ([`crate::IncrementalIndex::probe_live`]) → frozen-model
    /// scoring — the exact candidate rule and scoring code of
    /// [`crate::StreamPipeline::ingest`], minus the insertion.
    ///
    /// # Panics
    /// Panics if the record arity does not match the schema.
    pub fn resolve(&mut self, record: &Record) -> ResolveOutcome {
        self.resolve_side(record, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

impl ReadHandle<Linkage> {
    /// Resolves one side-tagged record against the pinned view: a
    /// read-only probe of the **opposite** side's index, then frozen
    /// cross-model scoring in the `(left, right)` orientation — the
    /// exact candidate rule and scoring code of
    /// [`crate::LinkPipeline::ingest`], minus the insertion.
    ///
    /// # Panics
    /// Panics if the record arity does not match the schema.
    pub fn resolve(&mut self, record: &Record, side: Side) -> ResolveOutcome {
        self.resolve_side(record, Some(side))
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Where the writer answers one operation.
type Reply<T> = mpsc::Sender<Result<T, StreamError>>;

/// One queued write operation with its reply channel; `G` is the
/// pipeline's routing tag.
enum WriteOp<G> {
    Ingest(Vec<Record>, G, Reply<Vec<IngestOutcome>>),
    Retract(Vec<usize>, Reply<Vec<RetractionReport>>),
    Compact(Reply<CompactionReport>),
    Refresh(Reply<crate::RefreshReport>),
    Snapshot(Reply<String>),
    Stats(Reply<String>),
}

struct AdmissionQueue<G> {
    ops: VecDeque<WriteOp<G>>,
    closed: bool,
}

/// State shared between handles and the writer thread.
struct Shared<T: Topology> {
    queue: Mutex<AdmissionQueue<T::Tag>>,
    admitted: Condvar,
    view: RwLock<Arc<ReadView>>,
}

/// Locks a mutex, recovering the data if a previous holder panicked
/// (queue and view state stay structurally valid across panics — each
/// critical section only moves whole elements).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_lock<T>(l: &RwLock<Arc<T>>) -> Arc<T> {
    Arc::clone(&l.read().unwrap_or_else(|e| e.into_inner()))
}

/// The write half: submits operations into the admission queue and
/// blocks until the single writer has applied them, preserving
/// submission order. Cheap to clone; every clone feeds the same queue.
pub struct WriteHandle<T: Topology = Dedup> {
    shared: Arc<Shared<T>>,
}

impl<T: Topology> Clone for WriteHandle<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Topology> WriteHandle<T> {
    /// Queues `op` with a fresh reply channel and blocks for the answer.
    fn submit<R>(&self, op: impl FnOnce(Reply<R>) -> WriteOp<T::Tag>) -> Result<R, StreamError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock(&self.shared.queue);
            if q.closed {
                return Err(StreamError("write path is shut down".into()));
            }
            q.ops.push_back(op(tx));
        }
        self.shared.admitted.notify_all();
        rx.recv()
            .unwrap_or_else(|_| Err(StreamError("writer thread exited before replying".into())))
    }

    /// Ingests a batch whose side may be absent — the side must be
    /// present exactly for a linkage pipeline. The serve layer's entry
    /// point; see [`WriteHandle::ingest`] for the semantics.
    ///
    /// # Errors
    /// Fails on a side that does not fit the pipeline, plus every
    /// failure of `ingest`.
    pub fn ingest_side(
        &self,
        records: Vec<Record>,
        side: Option<Side>,
    ) -> Result<Vec<IngestOutcome>, StreamError> {
        let tag = T::tag(side)?;
        self.submit(|reply| WriteOp::Ingest(records, tag, reply))
    }

    /// Retracts records by index — all-or-nothing, like
    /// [`Pipeline::retract_batch`].
    ///
    /// # Errors
    /// Fails like [`Pipeline::retract_batch`] (unknown index,
    /// double retraction, …) or when the write path is shut down.
    pub fn retract(&self, ids: Vec<usize>) -> Result<Vec<RetractionReport>, StreamError> {
        self.submit(|reply| WriteOp::Retract(ids, reply))
    }

    /// Runs one compaction pass on the writer.
    ///
    /// # Errors
    /// Fails when the write path is shut down.
    pub fn compact(&self) -> Result<CompactionReport, StreamError> {
        self.submit(WriteOp::Compact)
    }

    /// Re-fits the model over the writer's live records and swaps the
    /// frozen scorer ([`Pipeline::refit`]). The swap rides the normal publication
    /// path: by the time this returns, every subsequently pinned or
    /// refreshed [`ReadHandle`] scores with the new model, and views
    /// pinned earlier keep the old one — never a torn mix.
    ///
    /// # Errors
    /// Fails like [`Pipeline::refit`] (no candidate pairs,
    /// degenerate fit, structural drift) or when the write path is shut
    /// down. A failed refit leaves the serving model untouched.
    pub fn refresh(&self) -> Result<crate::RefreshReport, StreamError> {
        self.submit(WriteOp::Refresh)
    }

    /// Serializes the writer's current snapshot to JSON.
    ///
    /// # Errors
    /// Fails when the write path is shut down.
    pub fn snapshot_json(&self) -> Result<String, StreamError> {
        self.submit(WriteOp::Snapshot)
    }

    /// Publishes the writer's gauges and renders the `--stats` block
    /// via [`crate::render_stats`] — the same bytes the CLI prints.
    ///
    /// # Errors
    /// Fails when the write path is shut down.
    pub fn stats(&self) -> Result<String, StreamError> {
        self.submit(WriteOp::Stats)
    }
}

impl WriteHandle<Dedup> {
    /// Ingests a batch through the admission queue (one micro-batch
    /// slot; consecutive pending ingests coalesce into one parallel
    /// apply). Blocks until applied; outcomes are bit-identical to
    /// [`crate::StreamPipeline::ingest_batch`] on the same records in the
    /// same admission order.
    ///
    /// # Errors
    /// Fails when a record's arity does not match the schema, or when
    /// the write path is shut down. Arity failures reject the whole
    /// request before any record of it is applied.
    pub fn ingest(&self, records: Vec<Record>) -> Result<Vec<IngestOutcome>, StreamError> {
        self.ingest_side(records, None)
    }
}

/// A pipeline split into its read and write halves: the pipeline moves
/// onto a dedicated writer thread, reads go through epoch-pinned
/// [`ReadHandle`]s, and writes go through the [`WriteHandle`] admission
/// queue. [`SplitPipeline::shutdown`] drains the queue and hands the
/// pipeline back.
pub struct SplitPipeline<T: Topology = Dedup> {
    shared: Arc<Shared<T>>,
    writer: Option<std::thread::JoinHandle<Pipeline<T>>>,
}

impl<T: Topology> SplitPipeline<T> {
    /// Splits the pipeline with a single-threaded writer.
    pub fn new(pipeline: Pipeline<T>) -> Self {
        Self::with_threads(pipeline, 1)
    }

    /// Splits the pipeline; coalesced ingest micro-batches are applied
    /// with the pipeline's parallel batch ingest at `threads` workers
    /// (bit-identical at any thread count).
    pub fn with_threads(pipeline: Pipeline<T>, threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(AdmissionQueue {
                ops: VecDeque::new(),
                closed: false,
            }),
            admitted: Condvar::new(),
            view: RwLock::new(Arc::new(pipeline.read_view())),
        });
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("zeroer-writer".into())
            .spawn(move || writer_loop(pipeline, &writer_shared, threads))
            .expect("spawning the writer thread");
        Self {
            shared,
            writer: Some(writer),
        }
    }

    /// A fresh read handle pinned to the latest published view.
    pub fn read_handle(&self) -> ReadHandle<T> {
        ReadHandle::pin(read_lock(&self.shared.view), Some(Arc::clone(&self.shared)))
    }

    /// The write handle feeding the admission queue.
    pub fn write_handle(&self) -> WriteHandle<T> {
        WriteHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Closes the admission queue, waits for the writer to drain every
    /// already-admitted operation, and returns the pipeline. Operations
    /// submitted after shutdown fail with a shut-down error.
    pub fn shutdown(mut self) -> Pipeline<T> {
        self.close();
        self.writer
            .take()
            .expect("writer joined exactly once")
            .join()
            .expect("writer thread panicked")
    }

    fn close(&self) {
        lock(&self.shared.queue).closed = true;
        self.shared.admitted.notify_all();
    }
}

impl<T: Topology> Drop for SplitPipeline<T> {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            self.close();
            let _ = writer.join();
        }
    }
}

/// The single-writer loop: wait for admitted operations, apply them in
/// admission order (coalescing consecutive same-side ingests into one
/// micro-batch), publish **one** fresh view per drained queue batch,
/// and reply to each submitter. Returns the pipeline when the queue is
/// closed and drained.
///
/// Publishing once per drain (not once per applied op) matters:
/// publication clones the full read state, so a drain of k mutating
/// ops used to pay k clones for k−1 views no reader could ever pin —
/// the writer held the drain the whole time. Read-your-writes is
/// preserved by *deferring* the success replies of mutating ops until
/// after the batch-end publish: a submitter never learns its write
/// succeeded before a view containing it is pinnable. Failures (and
/// the read-only snapshot/stats ops) reply immediately — they publish
/// nothing.
fn writer_loop<T: Topology>(
    mut pipeline: Pipeline<T>,
    shared: &Shared<T>,
    threads: usize,
) -> Pipeline<T> {
    let mut version = 0u64;
    loop {
        let drained: Vec<WriteOp<T::Tag>> = {
            let mut q = lock(&shared.queue);
            while q.ops.is_empty() && !q.closed {
                q = shared.admitted.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            if q.ops.is_empty() {
                return pipeline;
            }
            q.ops.drain(..).collect()
        };
        let arity = pipeline.store().table().schema().arity();
        let meters = pipeline.meters;
        // The success replies of the ops that mutated the pipeline, held
        // back until the publish below.
        let mut deferred: Vec<Box<dyn FnOnce()>> = Vec::new();
        let mut iter = drained.into_iter().peekable();
        while let Some(op) = iter.next() {
            match op {
                WriteOp::Ingest(records, tag, reply) => {
                    // Coalesce the maximal run of consecutive ingest
                    // requests with this tag into one micro-batch,
                    // keeping each request's record-count boundary so
                    // outcomes can be split back per submitter. Requests
                    // with an arity mismatch are rejected up front
                    // (whole request, nothing applied) — the batch apply
                    // would otherwise panic the writer.
                    let mut batch: Vec<Record> = Vec::new();
                    let mut requests: Vec<(usize, Reply<Vec<IngestOutcome>>)> = Vec::new();
                    let mut admit = |records: Vec<Record>, reply: Reply<Vec<IngestOutcome>>| {
                        let checked = records.iter().try_for_each(|r| check_arity(r, arity));
                        if let Err(e) = checked {
                            let _ = reply.send(Err(e));
                            return;
                        }
                        requests.push((records.len(), reply));
                        batch.extend(records);
                    };
                    admit(records, reply);
                    while let Some(WriteOp::Ingest(records, _, reply)) =
                        iter.next_if(|op| matches!(op, WriteOp::Ingest(_, t, _) if *t == tag))
                    {
                        admit(records, reply);
                    }
                    if let Some(m) = meters {
                        m.admit_records.record(batch.len() as u64);
                    }
                    let mut outcomes = pipeline.ingest_tagged(batch, tag, threads).into_iter();
                    for (count, reply) in requests {
                        let out: Vec<IngestOutcome> = outcomes.by_ref().take(count).collect();
                        defer(&mut deferred, reply, Ok(out));
                    }
                }
                WriteOp::Retract(ids, reply) => {
                    let result = pipeline.retract_batch(&ids);
                    defer(&mut deferred, reply, result);
                }
                WriteOp::Compact(reply) => {
                    defer(&mut deferred, reply, Ok(pipeline.compact()));
                }
                WriteOp::Refresh(reply) => defer(&mut deferred, reply, pipeline.refit()),
                WriteOp::Snapshot(reply) => {
                    let _ = reply.send(Ok(pipeline.snapshot().to_json()));
                }
                WriteOp::Stats(reply) => {
                    pipeline.stats().publish();
                    let _ = reply.send(Ok(crate::render_stats()));
                }
            }
        }
        if !deferred.is_empty() {
            publish(&pipeline, shared, &mut version);
        }
        deferred.into_iter().for_each(|send| send());
    }
}

/// Holds a mutating op's success reply for after the drain's publish; a
/// failure changed nothing, so it answers at once.
fn defer<T: 'static>(
    deferred: &mut Vec<Box<dyn FnOnce()>>,
    reply: Reply<T>,
    result: Result<T, StreamError>,
) {
    match result {
        Ok(out) => deferred.push(Box::new(move || {
            let _ = reply.send(Ok(out));
        })),
        Err(e) => {
            let _ = reply.send(Err(e));
        }
    }
}

/// Publishes the writer's current read state as the next view version.
/// Only the final pointer swap holds the view lock; the clone happens
/// before it, so readers are never blocked on the copy.
fn publish<T: Topology>(pipeline: &Pipeline<T>, shared: &Shared<T>, version: &mut u64) {
    *version += 1;
    let meters = pipeline.meters;
    let sw = zeroer_obs::Stopwatch::new(meters.is_some());
    let mut view = pipeline.read_view();
    view.version = *version;
    if let Some(m) = meters {
        sw.total(m.publish);
    }
    let next = Arc::new(view);
    *shared.view.write().unwrap_or_else(|e| e.into_inner()) = next;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamOptions, StreamPipeline};
    use zeroer_tabular::csv::read_table;

    /// Resolve-only traffic of fresh tokens keeps a pinned handle's
    /// overlay within its bound, and every outcome equals a freshly
    /// pinned handle's, posteriors to the bit.
    #[test]
    fn overlay_stays_bounded_under_fresh_token_resolves() {
        let table = read_table(
            "base",
            "name,city\n\
             Golden Dragon Palace,new york\n\
             Golden Dragon Palce,new york\n\
             Blue Sky Tavern,austin\n\
             Rustic Oak Kitchen,denver\n\
             Harbor View Bistro,portland\n\
             Smoky Cellar Tavern,chicago\n",
        )
        .unwrap();
        let (p, _) = StreamPipeline::bootstrap(&table, StreamOptions::default()).unwrap();
        let mut handle = p.pin_read_handle();
        let fresh = p.pin_read_handle();
        let own = p.store().interner().len();
        let bits = |o: &ResolveOutcome| -> Vec<(usize, u64)> {
            o.matches.iter().map(|&(c, x)| (c, x.to_bits())).collect()
        };
        let (mut peak, mut matched) = (0, 0);
        for i in 0..2000u32 {
            // One fresh 8-character word a query: itself and most of its
            // 3-grams are unseen.
            let word = format!("{:08x}", i.wrapping_mul(2_654_435_761));
            let name = format!("Golden Dragon Palace {word}");
            let record = Record::new(i, vec![name.into(), "new york".into()]);
            let got = handle.resolve(&record);
            let want = fresh.clone().resolve(&record);
            assert_eq!(got.candidates, want.candidates, "query {i}");
            assert_eq!(got.cluster, want.cluster, "query {i}");
            assert_eq!(bits(&got), bits(&want), "query {i}");
            matched += got.matches.len();
            let local = handle.deriver.interner().len() - own;
            assert!(
                local <= own.max(OVERLAY_FLOOR),
                "{local} local tokens at query {i}"
            );
            peak = peak.max(local);
        }
        assert!(matched > 0, "premise: some queries match");
        assert!(
            peak > OVERLAY_FLOOR / 2,
            "premise: the overlay filled to {peak}"
        );
    }
}
