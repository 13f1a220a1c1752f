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
    /// Minimum shared word tokens for a candidate pair (1 = any shared
    /// token, unioned with q-gram blocking for typo robustness; ≥ 2 =
    /// overlap blocking).
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
    publish_batch_gauges(
        &DerivationStats::of(&prep.cross_fz),
        legs.cross.task.pairs.len(),
    );
    let (out, _) = legs.fit(&opts.config);
    MatchResult {
        pairs: legs.cross.task.pairs,
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
    publish_batch_gauges(&stats, leg.task.pairs.len());
    let (model, _) = leg.fit_dedup(&opts.config);
    let pairs = leg.task.pairs;
    let labels = model.labels();
    let probabilities = model.gammas().to_vec();

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
}
