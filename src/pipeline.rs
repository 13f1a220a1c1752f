//! High-level end-to-end matching pipelines.
//!
//! These wrap the full paper pipeline — blocking → automatic feature
//! generation → min-max normalization → the ZeroER generative model (with
//! the three-model transitivity trainer for record linkage) — behind two
//! calls: [`match_tables`] for record linkage (`T ≠ T'`) and
//! [`dedup_table`] for deduplication (`T = T'`).
//!
//! Both pipelines derive each record **once** through the shared
//! derivation layer: the featurizer's derivation (interned token bags +
//! blocking keys) feeds blocking and feature generation alike, so no
//! call site here ever re-tokenizes raw attribute text.

use zeroer_core::{UnionFind, ZeroErConfig};
use zeroer_features::PairFeaturizer;
use zeroer_stream::{build_dedup_leg, build_linkage_legs, IndexConfig};
use zeroer_tabular::Table;

pub use zeroer_stream::{
    BootstrapReport, CompactionReport, IngestOutcome, LinkBootstrapReport, LinkPipeline,
    PipelineSnapshot, RetractionReport, Side, SnapshotModel, StreamError, StreamOptions,
    StreamPipeline, StreamStats,
};

/// Options for the high-level pipelines.
#[derive(Debug, Clone)]
pub struct MatchOptions {
    /// Model configuration (defaults to the paper's full system).
    pub config: ZeroErConfig,
    /// Attribute index used as the blocking key (default 0 — the
    /// name/title column in every benchmark schema).
    pub blocking_attr: usize,
    /// The overlap floor of the standard blocking rule
    /// (`zeroer_blocking::standard_rule`): a candidate pair needs
    /// `max(min_token_overlap, 2)` shared keys. At 1 (the default) a
    /// shared token and a shared q-gram count alike, so a typo inside a
    /// word cannot lose the pair; ≥ 2 is overlap blocking on tokens
    /// alone. The `*_with_snapshot` calls refuse 0, which the plain calls
    /// treat as 1.
    pub min_token_overlap: usize,
}

impl Default for MatchOptions {
    fn default() -> Self {
        Self {
            config: ZeroErConfig::default(),
            blocking_attr: 0,
            min_token_overlap: 1,
        }
    }
}

impl MatchOptions {
    /// The standard blocking recipe on the chosen attribute: the
    /// streaming index's defaults, so batch and streaming block alike.
    fn index(&self) -> IndexConfig {
        IndexConfig {
            attr: self.blocking_attr,
            min_token_overlap: self.min_token_overlap,
            ..IndexConfig::default()
        }
    }

    /// The streaming options of a `*_with_snapshot` run.
    fn stream(&self) -> StreamOptions {
        StreamOptions {
            config: self.config.clone(),
            blocking_attr: self.blocking_attr,
            min_token_overlap: self.min_token_overlap,
            ..StreamOptions::default()
        }
    }
}

/// Derivation observability of one pipeline run (`zeroer dedup --stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DerivationStats {
    /// Distinct tokens interned across the run's derivations.
    pub distinct_tokens: usize,
    /// Bytes of distinct token text stored (each token once).
    pub interner_bytes: usize,
}

impl DerivationStats {
    fn of(fz: &PairFeaturizer) -> Self {
        Self {
            distinct_tokens: fz.interner().len(),
            interner_bytes: fz.interner().bytes(),
        }
    }
}

/// Publishes the batch run's derivation/blocking gauges so
/// `--metrics` dumps and the unified `--stats` renderer see the same
/// numbers the streaming paths report. Gauge names match
/// [`StreamStats::publish`].
fn publish_batch_gauges(stats: &DerivationStats, candidate_pairs: usize) {
    zeroer_obs::gauge("derive.interned_tokens").set(stats.distinct_tokens as u64);
    zeroer_obs::gauge("derive.interned_bytes").set(stats.interner_bytes as u64);
    zeroer_obs::gauge("block.candidate_pairs").set(candidate_pairs as u64);
}

/// Result of [`match_tables`].
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// Candidate pairs as `(left index, right index)`.
    pub pairs: Vec<(usize, usize)>,
    /// Posterior match probability per candidate pair.
    pub probabilities: Vec<f64>,
    /// Hard labels at the 0.5 posterior threshold (Eq. 5).
    pub labels: Vec<bool>,
}

impl MatchResult {
    /// Iterates over predicted matches as `(left, right, probability)`.
    pub fn matches(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.pairs
            .iter()
            .zip(&self.probabilities)
            .zip(&self.labels)
            .filter(|(_, &keep)| keep)
            .map(|(((l, r), &p), _)| (*l, *r, p))
    }

    /// Number of predicted matches.
    pub fn num_matches(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }
}

/// Record linkage between two tables with aligned schemas: the paper's
/// full pipeline with the three-model transitivity trainer (§5).
///
/// # Panics
/// Panics if the schemas differ.
pub fn match_tables(left: &Table, right: &Table, opts: &MatchOptions) -> MatchResult {
    assert_eq!(
        left.schema(),
        right.schema(),
        "match_tables requires aligned schemas"
    );
    // The shared three-featurizer recipe, implemented once in
    // `zeroer_stream::legs` and used verbatim by the streaming
    // `LinkPipeline::bootstrap` as well.
    let prep = build_linkage_legs(left, right, &opts.index());
    let Some(legs) = prep.legs else {
        publish_batch_gauges(&DerivationStats::of(&prep.cross_fz), 0);
        return MatchResult {
            pairs: vec![],
            probabilities: vec![],
            labels: vec![],
        };
    };
    let pairs = legs.cross.pairs().to_vec();
    publish_batch_gauges(&DerivationStats::of(&prep.cross_fz), pairs.len());
    let (out, _) = legs.fit(&opts.config);
    MatchResult {
        pairs,
        probabilities: out.cross_gammas,
        labels: out.cross_labels,
    }
}

/// Like [`match_tables`], but additionally freezes the three fitted
/// models (cross, within-left, within-right) plus the feature/blocking
/// replay state into a linkage [`PipelineSnapshot`] and returns the live
/// [`LinkPipeline`] seeded with the batch decisions — the `zeroer link
/// --save-model` path. At the default threshold the reported pairs,
/// probabilities and labels are identical to [`match_tables`]'s.
///
/// # Errors
/// Fails when the schemas differ, cross blocking yields no candidate
/// pairs, or the fit is too degenerate to freeze.
pub fn match_tables_with_snapshot(
    left: &Table,
    right: &Table,
    opts: &MatchOptions,
) -> Result<(MatchResult, LinkPipeline), StreamError> {
    let (pipeline, report) = LinkPipeline::bootstrap(left, right, opts.stream())?;
    Ok((
        MatchResult {
            pairs: report.pairs,
            probabilities: report.probabilities,
            labels: report.labels,
        },
        pipeline,
    ))
}

/// Result of [`dedup_table`].
#[derive(Debug, Clone)]
pub struct DedupResult {
    /// Candidate pairs as `(i, j)` with `i < j`.
    pub pairs: Vec<(usize, usize)>,
    /// Posterior duplicate probability per pair.
    pub probabilities: Vec<f64>,
    /// Hard labels at the 0.5 threshold.
    pub labels: Vec<bool>,
    /// Duplicate clusters: connected components over the predicted
    /// duplicate pairs (singletons omitted).
    pub clusters: Vec<Vec<usize>>,
    /// Derivation observability (`--stats`).
    pub stats: DerivationStats,
}

/// Deduplicates one table: blocking within the table, one generative
/// model, transitivity calibration (§5's `T = T'` case), and a final
/// transitive-closure clustering of the predicted duplicates. The table
/// is derived exactly once; blocking and featurization share the
/// derivation. Everything up to the clustering is the streaming
/// bootstrap's recipe ([`zeroer_stream::build_dedup_leg`] and
/// [`zeroer_stream::LegReplay::fit_dedup`]).
pub fn dedup_table(table: &Table, opts: &MatchOptions) -> DedupResult {
    let prep = build_dedup_leg(table, &opts.index());
    let stats = DerivationStats::of(&prep.fz);
    let Some(leg) = prep.leg else {
        publish_batch_gauges(&stats, 0);
        return DedupResult {
            pairs: vec![],
            probabilities: vec![],
            labels: vec![],
            clusters: vec![],
            stats,
        };
    };
    let pairs = leg.pairs().to_vec();
    publish_batch_gauges(&stats, pairs.len());
    let (_, _, probabilities) = leg.fit_dedup(&opts.config);
    let labels: Vec<bool> = probabilities.iter().map(|&g| g > 0.5).collect();

    // Transitive closure over predicted duplicates, via the shared
    // union-find (the same structure `EntityStore` clusters with).
    let clusters = zeroer_obs::time("batch.cluster.ns", || {
        let mut uf = UnionFind::new(table.len());
        for (&(a, b), &dup) in pairs.iter().zip(&labels) {
            if dup {
                uf.union(a, b);
            }
        }
        uf.clusters(2)
    });

    DedupResult {
        pairs,
        probabilities,
        labels,
        clusters,
        stats,
    }
}

/// Like [`dedup_table`], but additionally freezes the fitted model (and
/// the feature/blocking replay state) into a [`PipelineSnapshot`] ready
/// for the streaming path and returns the live [`StreamPipeline`] seeded
/// with the batch decisions — the `zeroer dedup --save-model` path.
///
/// # Errors
/// Fails when blocking yields no candidate pairs (there is nothing to
/// fit, so there is nothing to freeze).
pub fn dedup_table_with_snapshot(
    table: &Table,
    opts: &MatchOptions,
) -> Result<(DedupResult, StreamPipeline), StreamError> {
    let (pipeline, report) = StreamPipeline::bootstrap(table, opts.stream())?;
    let stream_stats = pipeline.stats();
    let result = DedupResult {
        pairs: report.pairs,
        probabilities: report.probabilities,
        labels: report.labels,
        clusters: pipeline.clusters(),
        stats: DerivationStats {
            distinct_tokens: stream_stats.interned_tokens,
            interner_bytes: stream_stats.interned_bytes,
        },
    };
    publish_batch_gauges(&result.stats, result.pairs.len());
    Ok((result, pipeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroer_blocking::{standard_candidates_derived, PairMode};
    use zeroer_datagen::{generate_dedup, CorpusSpec};
    use zeroer_tabular::csv::read_table;

    fn left() -> Table {
        read_table(
            "l",
            "name,city,year\n\
             Golden Dragon Palace,new york,1999\n\
             Blue Sky Tavern,austin,2005\n\
             Rustic Oak Kitchen,denver,2010\n",
        )
        .unwrap()
    }

    fn right() -> Table {
        read_table(
            "r",
            "name,city,year\n\
             Golden Dragon Palace,new york,1999\n\
             Rustic Oak Kitchn,denver,2010\n\
             Totally Unrelated Bistro,miami,1987\n",
        )
        .unwrap()
    }

    #[test]
    fn match_tables_finds_obvious_pairs() {
        let result = match_tables(&left(), &right(), &MatchOptions::default());
        let matched: Vec<(usize, usize)> = result.matches().map(|(l, r, _)| (l, r)).collect();
        assert!(
            matched.contains(&(0, 0)),
            "exact duplicate must match: {matched:?}"
        );
        assert!(
            matched.contains(&(2, 1)),
            "typo'd duplicate must match: {matched:?}"
        );
        assert!(
            !matched.contains(&(1, 2)),
            "unrelated records must not match"
        );
    }

    #[test]
    fn dedup_clusters_duplicates() {
        let table = read_table(
            "t",
            "name,city\n\
             Golden Dragon,new york\n\
             Golden Dragon Palace,new york\n\
             Blue Sky Tavern,austin\n\
             Golden Dragn,new york\n",
        )
        .unwrap();
        let result = dedup_table(&table, &MatchOptions::default());
        assert_eq!(
            result.clusters.len(),
            1,
            "one duplicate cluster: {:?}",
            result.clusters
        );
        let cluster = &result.clusters[0];
        assert!(cluster.contains(&0) && cluster.contains(&3), "{cluster:?}");
        assert!(result.stats.distinct_tokens > 0, "stats are populated");
    }

    #[test]
    fn dedup_with_snapshot_matches_plain_dedup() {
        let table = read_table(
            "t",
            "name,city\n\
             Golden Dragon,new york\n\
             Golden Dragon Palace,new york\n\
             Blue Sky Tavern,austin\n\
             Golden Dragn,new york\n\
             Harbor View Bistro,portland\n",
        )
        .unwrap();
        let opts = MatchOptions::default();
        let plain = dedup_table(&table, &opts);
        let (with_snap, pipeline) =
            dedup_table_with_snapshot(&table, &opts).expect("candidates exist");
        assert_eq!(plain.pairs, with_snap.pairs);
        assert_eq!(plain.labels, with_snap.labels);
        assert_eq!(plain.probabilities, with_snap.probabilities);
        assert_eq!(plain.clusters, with_snap.clusters);
        // Both paths derived the same table with the same config: the
        // interner statistics must agree exactly.
        assert_eq!(plain.stats.distinct_tokens, with_snap.stats.distinct_tokens);
        // The frozen snapshot round-trips through JSON.
        let snap = pipeline.snapshot();
        let reloaded = PipelineSnapshot::from_json(&snap.to_json()).expect("valid JSON");
        assert_eq!(reloaded.model, snap.model);
    }

    #[test]
    fn match_with_snapshot_matches_plain_match() {
        let (l, r) = (left(), right());
        let opts = MatchOptions::default();
        let plain = match_tables(&l, &r, &opts);
        let (with_snap, pipeline) =
            match_tables_with_snapshot(&l, &r, &opts).expect("candidates exist");
        assert_eq!(plain.pairs, with_snap.pairs);
        assert_eq!(plain.labels, with_snap.labels);
        for (a, b) in plain.probabilities.iter().zip(&with_snap.probabilities) {
            assert_eq!(a.to_bits(), b.to_bits(), "posterior drift");
        }
        // Every predicted cross match appears as a cross link of the
        // seeded pipeline (transitive closure can only add links).
        let links = pipeline.cross_links();
        let nl = l.len();
        for (li, ri, _) in plain.matches() {
            assert!(links.contains(&(li, nl + ri)), "missing link ({li},{ri})");
        }
        // The frozen snapshot round-trips through JSON.
        let snap = pipeline.snapshot();
        let reloaded = PipelineSnapshot::from_json(&snap.to_json()).expect("valid JSON");
        assert_eq!(reloaded.model, snap.model);
    }

    #[test]
    fn empty_candidate_sets_are_handled() {
        let l = read_table("l", "name\ncompletely\n").unwrap();
        let r = read_table("r", "name\ndifferent\n").unwrap();
        let result = match_tables(&l, &r, &MatchOptions::default());
        assert_eq!(result.num_matches(), 0);
        assert!(result.pairs.is_empty());
    }

    /// The `zeroer dedup` CLI fixture: blocking keeps one two-key pair,
    /// so the fit also sees support rows.
    fn cli_fixture() -> Table {
        read_table(
            "t",
            "name\n\
             Golden Dragon Palace\n\
             Golden Dragon Palce\n\
             Blue Sky Tavern\n\
             Rustic Oak Kitchen\n",
        )
        .unwrap()
    }

    /// Components of the labelled candidate pairs, as `dedup_table`
    /// clusters them.
    fn clusters_of(n: usize, pairs: &[(usize, usize)], labels: &[bool]) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(n);
        for (&(a, b), &dup) in pairs.iter().zip(labels) {
            if dup {
                uf.union(a, b);
            }
        }
        uf.clusters(2)
    }

    #[test]
    fn support_rows_appear_in_no_output() {
        let table = cli_fixture();
        let opts = MatchOptions::default();
        let prep = build_dedup_leg(&table, &opts.index());
        let leg = prep.leg.expect("one two-key pair");
        let candidates = leg.pairs().to_vec();
        let support = &leg.task.pairs[leg.candidates..];
        assert_eq!(candidates, vec![(0, 1)], "premise: one candidate");
        assert!(!support.is_empty(), "premise: the fit sees support rows");
        assert!(candidates.len() + support.len() <= 2 * (prep.fz.dim() + 1));

        let plain = dedup_table(&table, &opts);
        assert_eq!(plain.pairs, candidates);
        assert_eq!(plain.probabilities.len(), candidates.len());
        assert_eq!(plain.labels.len(), candidates.len());
        assert_eq!(
            plain.clusters,
            clusters_of(table.len(), &plain.pairs, &plain.labels)
        );
        assert_eq!(plain.clusters, vec![vec![0, 1]], "the pair must match");

        let (with_snap, pipeline) = dedup_table_with_snapshot(&table, &opts).expect("bootstrap");
        assert_eq!(with_snap.pairs, candidates);
        assert_eq!(with_snap.probabilities, plain.probabilities);
        assert_eq!(with_snap.labels, plain.labels);
        assert_eq!(with_snap.clusters, plain.clusters);
        assert_eq!(pipeline.stats().candidate_pairs, candidates.len());
        let snap = pipeline.snapshot();
        assert!(
            snap.bootstrap_pairs.iter().all(|p| candidates.contains(p)),
            "bootstrap decisions are candidate pairs: {:?}",
            snap.bootstrap_pairs
        );

        // Linkage: the cross leg keeps (0, 0) and fits on the one-key
        // pair (1, 1) as well.
        let pick = |rows: [usize; 2]| {
            let mut t = Table::new("side", table.schema().clone());
            for i in rows {
                t.push(table.records()[i].clone());
            }
            t
        };
        let (left, right) = (pick([0, 2]), pick([1, 3]));
        let legs = build_linkage_legs(&left, &right, &opts.index())
            .legs
            .expect("a cross candidate");
        assert_eq!(legs.cross.pairs(), [(0, 0)]);
        assert!(
            legs.cross.task.pairs.len() > legs.cross.candidates,
            "premise: the cross fit sees support rows"
        );
        assert_eq!(legs.candidates, 1, "no within-table candidates");
        let result = match_tables(&left, &right, &opts);
        assert_eq!(result.pairs, vec![(0, 0)]);
        assert_eq!(result.probabilities.len(), 1);
        assert_eq!(result.labels, vec![true]);
    }

    #[test]
    fn legs_with_enough_candidates_fit_on_exactly_them() {
        let spec = CorpusSpec {
            scale: 0.005,
            seed: 3,
            ..CorpusSpec::default()
        };
        let table = generate_dedup(&spec).expect("valid spec").table;
        let index = MatchOptions::default().index();
        let prep = build_dedup_leg(&table, &index);
        let leg = prep.leg.expect("candidates");
        let cs = standard_candidates_derived(
            prep.fz.left_derived(),
            None,
            PairMode::Dedup,
            index.min_token_overlap,
            index.max_bucket,
        );
        assert!(cs.len() >= 2 * (prep.fz.dim() + 1), "premise: {}", cs.len());
        assert_eq!(leg.candidates, cs.len());
        assert_eq!(leg.task.pairs, cs.pairs(), "no support rows");
        assert_eq!(leg.task.features.rows(), cs.len());
    }

    #[test]
    fn bootstraps_refuse_overlap_zero() {
        let opts = StreamOptions {
            min_token_overlap: 0,
            ..StreamOptions::default()
        };
        let err = StreamPipeline::bootstrap(&cli_fixture(), opts.clone())
            .err()
            .expect("dedup bootstrap refuses overlap 0");
        assert!(err.0.contains("min_token_overlap"), "{err}");
        let err = LinkPipeline::bootstrap(&left(), &right(), opts)
            .err()
            .expect("linkage bootstrap refuses overlap 0");
        assert!(err.0.contains("min_token_overlap"), "{err}");
    }

    #[test]
    fn bootstraps_refuse_bucket_cap_zero() {
        // A cap of 0 would retire every bucket at its first posting and
        // turn streaming blocking off.
        let opts = StreamOptions {
            max_bucket: 0,
            ..StreamOptions::default()
        };
        let err = StreamPipeline::bootstrap(&cli_fixture(), opts.clone())
            .err()
            .expect("dedup bootstrap refuses a zero cap");
        assert!(err.0.contains("max_bucket must be at least 1"), "{err}");
        let err = LinkPipeline::bootstrap(&left(), &right(), opts)
            .err()
            .expect("linkage bootstrap refuses a zero cap");
        assert!(err.0.contains("max_bucket must be at least 1"), "{err}");
    }
}
