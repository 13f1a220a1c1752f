//! Streaming **record linkage** (`T ≠ T'`): the `match`-path counterpart
//! of [`crate::StreamPipeline`].
//!
//! The batch linkage pipeline fits three generative models jointly — the
//! cross-table model `F` plus the within-table models `Fl`/`Fr` (§5 of
//! the paper) — and [`LinkPipeline::bootstrap`] freezes that whole fit
//! into a linkage [`crate::PipelineSnapshot`]. Afterwards the pipeline
//! serves the *online* form of the workload as the [`Linkage`] topology
//! of [`Pipeline`]: records arrive tagged with a [`Side`], an incoming
//! right-side record blocks **only against the left side's index** (and
//! vice versa), every cross candidate is scored with the frozen cross
//! model `F` — zero EM iterations — and matches merge entities in the
//! shared union-find, so transitivity is enforced structurally across
//! both tables.
//!
//! One [`EntityStore`] holds both sides' records in one combined
//! numbering (bootstrap left records first, then bootstrap right
//! records, then streamed records in arrival order) with one token
//! interner, so any left/right pair can be featurized directly. The
//! within-table models `Fl`/`Fr` play the role the paper gives them:
//! they *calibrate* the cross model during the joint fit (and are frozen
//! alongside it), but match decisions — applied at bootstrap, persisted
//! in the snapshot, replayed by [`LinkPipeline::seed_base`] — are cross
//! pairs only, exactly like the batch `match_tables` report.
//!
//! Everything else — parallel ingest bit-identical at any thread count,
//! exact retraction, compaction, drift folding with watermark-triggered
//! refit, snapshots, the read view — is [`Pipeline`]'s, shared with
//! dedup.

use crate::engine::{Pipeline, Topology};
use crate::legs::{build_linkage_legs, LegReplay};
use crate::pipeline::{structural_drift, IngestOutcome, RefreshReport, StreamError, StreamOptions};
use crate::snapshot::SnapshotModel;
use crate::store::EntityStore;
use zeroer_core::{GenerativeModel, LinkageSnapshot, ModelSnapshot};
use zeroer_features::{BatchFeaturizer, PairFeaturizer};
use zeroer_obs::Stopwatch;
use zeroer_tabular::{AttrType, Record, Table};

/// Which table a record belongs to in a record-linkage workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left table `T`.
    Left,
    /// The right table `T'`.
    Right,
}

impl Side {
    /// The opposite side (the one an incoming record blocks against).
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// Lower-case name, as the CLI `--side` flag spells it.
    pub fn name(self) -> &'static str {
        match self {
            Side::Left => "left",
            Side::Right => "right",
        }
    }
}

/// What the linkage bootstrap's batch fit produced — the same shape
/// `match_tables` reports, for callers that want the batch results
/// alongside the live pipeline.
#[derive(Debug, Clone)]
pub struct LinkBootstrapReport {
    /// Cross candidate pairs as `(left index, right index)` —
    /// *table-local* indices, like `match_tables`.
    pub pairs: Vec<(usize, usize)>,
    /// Calibrated posterior match probability per cross pair.
    pub probabilities: Vec<f64>,
    /// Hard labels at the 0.5 posterior threshold (Eq. 5).
    pub labels: Vec<bool>,
    /// Within-left pairs the fit *labelled* duplicates (diagnostic only
    /// — within-table posteriors calibrate the cross model, they are
    /// never applied as merge decisions).
    pub left_matches: usize,
    /// Within-right pairs labelled duplicates (diagnostic, like
    /// [`LinkBootstrapReport::left_matches`]).
    pub right_matches: usize,
    /// EM iterations the joint fit ran.
    pub em_iterations: usize,
}

/// Linkage topology: one index per side, left then right. An arrival
/// probes the opposite side's index and joins its own — the candidate
/// structure of batch cross-table blocking. A same-side batch never
/// matches itself.
pub struct Linkage;

impl crate::engine::sealed::Sealed for Linkage {}

impl Topology for Linkage {
    type Tag = Side;
    const KIND: &'static str = "linkage";
    const METRICS: &'static str = "link";
    const TABLES: &'static [(&'static str, Side)] = &[("left", Side::Left), ("right", Side::Right)];

    fn tag(side: Option<Side>) -> Result<Side, StreamError> {
        side.ok_or_else(|| {
            StreamError("a linkage pipeline needs a side (\"left\" or \"right\")".into())
        })
    }
    fn new_on_left(side: Side) -> bool {
        side == Side::Left
    }
    fn route(side: Side) -> (usize, usize) {
        match side {
            Side::Left => (1, 0),
            Side::Right => (0, 1),
        }
    }

    fn fit_live(p: &LinkPipeline) -> Result<(SnapshotModel, RefreshReport), StreamError> {
        let schema = p.store.table().schema().clone();
        let mut left = Table::new("refit-left", schema.clone());
        let mut right = Table::new("refit-right", schema);
        for (i, r) in p.live_records() {
            match p.tags[i] {
                Side::Left => left.push(r.clone()),
                Side::Right => right.push(r.clone()),
            }
        }
        let fit = fit_linkage(&left, &right, &p.opts, Some(p.featurizer.attr_types()))?;
        let summary = RefreshReport {
            records: left.len() + right.len(),
            pairs: fit.pairs.len(),
            em_iterations: fit.outcome.summary.iterations,
            ..RefreshReport::default()
        };
        Ok((SnapshotModel::Linkage(Box::new(fit.linkage)), summary))
    }
}

/// Streaming record linkage on top of a frozen three-model linkage fit:
/// ingest side-tagged records, block them against the opposite side's
/// incremental index, score cross candidates with the frozen cross
/// model, and maintain cross-table entity clusters in a union-find (see
/// [`Pipeline`]).
pub type LinkPipeline = Pipeline<Linkage>;

/// What the linkage fit recipe produced.
struct LinkFit {
    /// The cross featurizer, whose derivation bootstrap hands to the
    /// store.
    cross_fz: PairFeaturizer,
    /// Cross candidate pairs, table-local.
    pairs: Vec<(usize, usize)>,
    /// Candidate pairs across all three legs.
    candidates: usize,
    outcome: zeroer_core::LinkageOutcome,
    linkage: LinkageSnapshot,
}

/// The linkage fit [`LinkPipeline::bootstrap`] and [`Pipeline::refit`]
/// share: the batch recipe ([`build_linkage_legs`] and
/// [`crate::LegTriple::fit`], the ones `match_tables` runs) plus the
/// freeze. `frozen` is the cross feature layout a refit must keep
/// (`None` at bootstrap).
fn fit_linkage(
    left: &Table,
    right: &Table,
    opts: &StreamOptions,
    frozen: Option<&[AttrType]>,
) -> Result<LinkFit, StreamError> {
    let prep = build_linkage_legs(left, right, &opts.index_config());
    if frozen.is_some_and(|types| prep.cross_fz.attr_types() != types) {
        return Err(structural_drift());
    }
    let Some(legs) = prep.legs else {
        return Err(StreamError(
            "cross-table blocking produced no candidate pairs; nothing to fit a model on".into(),
        ));
    };
    let (outcome, fitted) = legs.fit(&opts.config);
    let capture = |model: Option<&GenerativeModel>, leg: &LegReplay| {
        model.and_then(|m| {
            ModelSnapshot::capture_checked(m, &leg.ranges, &leg.impute_means, &leg.names)
        })
    };
    let cross = capture(Some(&fitted.cross), &legs.cross).ok_or_else(|| {
        StreamError("cross-model fit is degenerate (non-finite parameters); cannot freeze".into())
    })?;
    // A tiny within-table leg may be unfreezable (degenerate fit) —
    // that is tolerable: streamed candidates are always cross pairs, so
    // only the cross model is required at serving time.
    let linkage = LinkageSnapshot {
        cross,
        left: capture(fitted.left.as_ref(), &legs.left),
        right: capture(fitted.right.as_ref(), &legs.right),
        transitivity: opts.config.transitivity,
    };
    Ok(LinkFit {
        cross_fz: prep.cross_fz,
        pairs: legs.cross.pairs().to_vec(),
        candidates: legs.candidates,
        outcome,
        linkage,
    })
}

impl LinkPipeline {
    /// Bootstraps from two complete tables: runs the full batch linkage
    /// pipeline (cross + within-table blocking → features →
    /// normalization → the three-model joint EM with cross-table
    /// transitivity calibration), freezes the fitted models into a
    /// [`LinkageSnapshot`], seeds the combined store and the two
    /// side-indexes, and applies the batch match decisions to the
    /// cluster index.
    ///
    /// Cross pairs are derived exactly once: the cross featurizer's
    /// derivation feeds blocking, feature generation, both index seeds,
    /// and the entity store.
    ///
    /// # Errors
    /// Fails when the schemas differ, when `min_token_overlap` is 0, when
    /// cross blocking yields no candidate pairs (nothing to fit), or when
    /// the fit is too degenerate to freeze.
    pub fn bootstrap(
        left: &Table,
        right: &Table,
        opts: StreamOptions,
    ) -> Result<(Self, LinkBootstrapReport), StreamError> {
        if left.schema() != right.schema() {
            return Err(StreamError(format!(
                "record linkage requires aligned schemas ({:?} vs {:?})",
                left.schema().attributes(),
                right.schema().attributes()
            )));
        }
        opts.check()?;
        let sw = Stopwatch::new(opts.metrics);
        let fit = fit_linkage(left, right, &opts, None)?;
        let featurizer = BatchFeaturizer::new(fit.cross_fz.attr_types());

        // One combined store: left records first (indices 0..L), then
        // right records (L..L+R), sharing the cross featurizer's
        // interner and derivations.
        let nl = left.len();
        let mut combined = Table::new("link-store", left.schema().clone());
        for r in left.records().iter().chain(right.records()) {
            combined.push(r.clone());
        }
        let (interner, mut derived, mut right_derived) = fit.cross_fz.into_parts_cross();
        derived.append(&mut right_derived);
        let derive_cfg = opts.index_config().derive_config();
        let store = EntityStore::from_derived(&combined, interner, derived, derive_cfg);
        let mut pipeline = Self::new(
            opts,
            store,
            featurizer,
            SnapshotModel::Linkage(Box::new(fit.linkage)),
        )?;

        // Apply the batch decisions: **cross pairs only**. The
        // within-table models exist to *calibrate* the cross model during
        // the joint fit (their posteriors gate the transitivity
        // triangles); their hard labels are not match decisions — on
        // internally-deduplicated tables EM still carves out a
        // "duplicate" component, and merging it would poison the
        // clusters. This mirrors `match_tables`, which also reports cross
        // labels only; the within-leg posteriors stay available in the
        // report for diagnostics.
        pipeline.finish_bootstrap(
            sw,
            &[left, right],
            fit.candidates,
            fit.pairs
                .iter()
                .map(|&(l, r)| (l, nl + r))
                .zip(fit.outcome.cross_gammas.iter().copied()),
        );
        let threshold = pipeline.opts.threshold;
        let hot = |gammas: &[f64]| gammas.iter().filter(|&&g| g > threshold).count();
        let out = fit.outcome;
        let report = LinkBootstrapReport {
            left_matches: hot(&out.left_gammas),
            right_matches: hot(&out.right_gammas),
            pairs: fit.pairs,
            probabilities: out.cross_gammas,
            labels: out.cross_labels,
            em_iterations: out.summary.iterations,
        };
        Ok((pipeline, report))
    }

    /// [`Pipeline::seed`] with both bootstrap tables, which must hold the
    /// records (same records, same order) the snapshot was bootstrapped
    /// on.
    ///
    /// # Errors
    /// Fails like [`Pipeline::seed`].
    pub fn seed_base(&mut self, left: &Table, right: &Table) -> Result<(), StreamError> {
        self.seed(&[left, right])
    }

    /// Which side record `idx` belongs to.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn side(&self, idx: usize) -> Side {
        self.tags[idx]
    }

    /// The frozen three-model fit this pipeline scores with.
    pub fn linkage(&self) -> &LinkageSnapshot {
        match &self.model {
            SnapshotModel::Linkage(linkage) => linkage,
            SnapshotModel::Dedup(_) => unreachable!("a linkage pipeline holds a linkage model"),
        }
    }

    /// All cross-table links the current clustering implies: `(left
    /// combined index, right combined index)` for every co-clustered
    /// left/right pair, sorted. This is the linkage-world notion of
    /// "predicted matches" (transitive closure included), the quantity
    /// the pair-F1 e2e measures.
    pub fn cross_links(&self) -> Vec<(usize, usize)> {
        let sides = &self.tags;
        let mut links = Vec::new();
        for cluster in self.clusters() {
            for &a in cluster.iter().filter(|&&a| sides[a] == Side::Left) {
                for &b in cluster.iter().filter(|&&b| sides[b] == Side::Right) {
                    links.push((a, b));
                }
            }
        }
        links.sort_unstable();
        links
    }

    /// Ingests one side-tagged record: one derivation pass → a read-only
    /// probe of the **opposite** side's blocking index → frozen
    /// cross-model scoring of every candidate → entity assignment. Runs
    /// **zero** EM iterations. The record's own postings go into its own
    /// side's index, so only future opposite-side arrivals can match it.
    ///
    /// # Panics
    /// Panics if the record arity does not match the schema.
    pub fn ingest(&mut self, record: Record, side: Side) -> IngestOutcome {
        self.ingest_one(record, side)
    }

    /// Ingests a batch of same-side records in order; the refresh
    /// watermark is checked once, after the whole batch.
    pub fn ingest_batch(
        &mut self,
        records: impl IntoIterator<Item = Record>,
        side: Side,
    ) -> Vec<IngestOutcome> {
        self.ingest_tagged(records.into_iter().collect(), side, 1)
    }

    /// Ingests a same-side batch across a pool of `threads` workers,
    /// producing outcomes **bit-identical** to
    /// [`LinkPipeline::ingest_batch`] on the same records (see
    /// [`Pipeline::ingest_tagged`]). A same-side batch only probes the
    /// opposite side's index, which no record of the batch joins, so
    /// there are no intra-batch matches.
    ///
    /// # Panics
    /// Panics if any record's arity does not match the schema (checked
    /// up front, before any state is touched).
    pub fn ingest_batch_parallel(
        &mut self,
        records: Vec<Record>,
        side: Side,
        threads: usize,
    ) -> Vec<IngestOutcome> {
        self.ingest_tagged(records, side, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineSnapshot;
    use zeroer_tabular::csv::read_table;

    fn left_table() -> Table {
        read_table(
            "left",
            "name,city\n\
             Golden Dragon Palace,new york\n\
             Blue Sky Tavern,austin\n\
             Rustic Oak Kitchen,denver\n\
             Harbor View Bistro,portland\n\
             Smoky Cellar Tavern,chicago\n",
        )
        .unwrap()
    }

    fn right_table() -> Table {
        read_table(
            "right",
            "name,city\n\
             Golden Dragon Palce,new york\n\
             Rustic Oak Kitchn,denver\n\
             Totally Unrelated Bistro,miami\n\
             Smoky Cellar Tavern,chicago\n",
        )
        .unwrap()
    }

    fn rec(id: u32, name: &str, city: &str) -> Record {
        Record::new(id, vec![name.into(), city.into()])
    }

    fn pipeline() -> (LinkPipeline, LinkBootstrapReport) {
        LinkPipeline::bootstrap(&left_table(), &right_table(), StreamOptions::default())
            .expect("bootstrap")
    }

    #[test]
    fn bootstrap_links_obvious_cross_pairs() {
        let (p, report) = pipeline();
        assert!(report.em_iterations >= 1);
        assert_eq!(p.len(), 9);
        let nl = left_table().len();
        // Golden Dragon (0 ↔ 0) and Rustic Oak (2 ↔ 1) link across.
        assert!(p.store().same_entity(0, nl), "{:?}", p.clusters());
        assert!(p.store().same_entity(2, nl + 1), "{:?}", p.clusters());
        // Unrelated right record stays a singleton.
        assert!(!p.clusters().iter().any(|c| c.contains(&(nl + 2))));
        let links = p.cross_links();
        assert!(links.contains(&(0, nl)) && links.contains(&(2, nl + 1)));
    }

    #[test]
    fn right_ingest_blocks_against_left_only() {
        let (mut p, _) = pipeline();
        let nl = left_table().len();
        // An exact copy of a *right* record must not match it (same
        // side); only the cross pair with the left original counts.
        let out = p.ingest(rec(100, "Golden Dragon Palce", "new york"), Side::Right);
        assert!(!out.is_new_entity());
        assert!(
            out.matches.iter().all(|&(c, _)| c < nl),
            "right-side ingest may only match left records: {:?}",
            out.matches
        );
        // It still lands in the Golden Dragon entity via the left match.
        assert!(p.store().same_entity(out.index, nl));

        let fresh = p.ingest(rec(101, "Totally Unseen Steakhouse", "miami"), Side::Right);
        assert!(fresh.is_new_entity());
    }

    #[test]
    fn left_ingest_blocks_against_right_only() {
        let (mut p, _) = pipeline();
        let nl = left_table().len();
        // A new left record matching an unmatched right record links it.
        let out = p.ingest(rec(200, "Totally Unrelated Bistro", "miami"), Side::Left);
        assert!(!out.is_new_entity());
        assert!(
            out.matches.iter().all(|&(c, _)| c >= nl),
            "left-side ingest may only match right records: {:?}",
            out.matches
        );
        assert!(p.store().same_entity(out.index, nl + 2));
    }

    #[test]
    fn streamed_records_become_candidates_for_the_opposite_side() {
        let (mut p, _) = pipeline();
        let a = p.ingest(rec(300, "Crimson Lotus Noodle Bar", "seattle"), Side::Left);
        assert!(a.is_new_entity());
        let b = p.ingest(rec(301, "Crimson Lotus Noodle Bar", "seattle"), Side::Right);
        assert!(
            !b.is_new_entity(),
            "a streamed left record must be matchable by a later right record"
        );
        assert!(p.store().same_entity(a.index, b.index));
    }

    #[test]
    fn parallel_link_ingest_is_bit_identical() {
        let tail: Vec<Record> = vec![
            rec(400, "Golden Dragon Palace", "new york"),
            rec(401, "Blue Sky Tavern", "austin"),
            rec(402, "Totally New Place", "boston"),
            rec(403, "Harbor View Bistro", "portland"),
            rec(404, "Rustic Oak Kitchen", "denver"),
            rec(405, "Another Fresh Venue", "reno"),
        ];
        let (seq, _) = pipeline();
        let snap = seq.snapshot();
        let mut reference: Option<Vec<IngestOutcome>> = None;
        for threads in [1, 2, 4] {
            let mut p = LinkPipeline::from_snapshot(&snap, 0.5).expect("restore");
            p.seed_base(&left_table(), &right_table()).expect("seed");
            let outcomes = p.ingest_batch_parallel(tail.clone(), Side::Right, threads);
            match &reference {
                None => reference = Some(outcomes),
                Some(want) => {
                    assert_eq!(want.len(), outcomes.len());
                    for (w, g) in want.iter().zip(&outcomes) {
                        assert_eq!(w.index, g.index, "threads={threads}");
                        assert_eq!(w.candidates, g.candidates, "threads={threads}");
                        assert_eq!(w.cluster, g.cluster, "threads={threads}");
                        assert_eq!(w.matches.len(), g.matches.len(), "threads={threads}");
                        for ((wc, wp), (gc, gp)) in w.matches.iter().zip(&g.matches) {
                            assert_eq!(wc, gc, "threads={threads}");
                            assert_eq!(
                                wp.to_bits(),
                                gp.to_bits(),
                                "threads={threads}: posterior bits must match"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_scoring() {
        let (mut live, _) = pipeline();
        let snap = live.snapshot();
        let reloaded = PipelineSnapshot::from_json(&snap.to_json()).expect("round-trips");
        assert_eq!(reloaded.model, snap.model);
        assert_eq!(reloaded.bootstrap_pairs, snap.bootstrap_pairs);
        let mut cold = LinkPipeline::from_snapshot(&reloaded, 0.5).expect("restore");
        cold.seed_base(&left_table(), &right_table()).expect("seed");
        assert_eq!(cold.clusters(), live.clusters());

        let probe = rec(500, "Golden Dragon Palace", "new york");
        let a = live.ingest(probe.clone(), Side::Right);
        let b = cold.ingest(probe, Side::Right);
        assert_eq!(a.matches.len(), b.matches.len());
        for ((ca, pa), (cb, pb)) in a.matches.iter().zip(&b.matches) {
            assert_eq!(ca, cb);
            assert_eq!(pa.to_bits(), pb.to_bits(), "posterior drift");
        }
    }

    #[test]
    fn seed_base_rejects_wrong_tables() {
        let (live, _) = pipeline();
        let snap = live.snapshot();
        let mut cold = LinkPipeline::from_snapshot(&snap, 0.5).unwrap();
        let err = cold
            .seed_base(&right_table(), &right_table())
            .expect_err("wrong left table");
        assert!(err.to_string().contains("left table"), "{err}");
        // Errors must leave the pipeline re-seedable… with the right
        // tables. (The failed left seed never touched the store.)
        assert!(cold.is_empty());
        cold.seed_base(&left_table(), &right_table())
            .expect("correct tables seed");
    }

    #[test]
    fn retraction_unlinks_and_hides_the_record() {
        let (mut p, _) = pipeline();
        let nl = left_table().len();
        assert!(p.store().same_entity(0, nl));
        let report = p.retract(nl).expect("live record retracts");
        assert!(report.component_size >= 2);
        assert!(report.postings_tombstoned > 0);
        assert!(p.store().is_retracted(nl));
        assert!(!p.clusters().iter().any(|c| c.contains(&nl)));

        // A fresh right ingest matches the left original, never the
        // retracted right twin.
        let again = p.ingest(rec(600, "Golden Dragon Palace", "new york"), Side::Right);
        assert!(!again.is_new_entity());
        assert!(again.matches.iter().all(|&(c, _)| c != nl));
    }

    #[test]
    fn compact_reclaims_both_indexes() {
        let opts = StreamOptions {
            compact_watermark: None,
            ..StreamOptions::default()
        };
        let (mut p, _) =
            LinkPipeline::bootstrap(&left_table(), &right_table(), opts).expect("bootstrap");
        let nl = left_table().len();
        p.retract(0).unwrap(); // a left record
        p.retract(nl).unwrap(); // a right record
        let clusters_before = p.clusters();
        let report = p.compact();
        assert!(report.index.postings_dropped > 0);
        assert!(report.bytes_reclaimed() > 0);
        assert_eq!(p.stats().index.dead_postings(), 0);
        assert_eq!(p.clusters(), clusters_before);
    }

    #[test]
    fn mismatched_schemas_are_rejected() {
        let other = read_table("o", "title\nsomething\n").unwrap();
        assert!(LinkPipeline::bootstrap(&left_table(), &other, StreamOptions::default()).is_err());
    }
}
