//! The entity store: ingested records, their shared derivation, and the
//! live cluster index — now with record **retraction**.
//!
//! ## Retraction and the decision log
//!
//! A union-find cannot un-merge, so the store keeps the per-record
//! match-decision log: every `merge(a, b)` is appended to an edge list
//! (with a per-record adjacency over it). Retracting record `x` then
//! tombstones `x`, walks the adjacency to collect `x`'s *historical*
//! connected component, resets those members to singletons
//! ([`zeroer_core::UnionFind::reset_members`]), and replays the
//! component's logged decisions skipping any edge that touches a
//! tombstoned record — rebuilding exactly the clustering a store that
//! never held `x` would have (match decisions are pure functions of the
//! two records, so no other component can be affected). An `epoch`
//! counter advances on every retraction and compaction so snapshots and
//! observers can order states.
//!
//! [`EntityStore::compact`] prunes dead log edges and releases retracted
//! records' derivations (their token bags are the heavy part); record
//! *indices* are never reused, so live indices stay stable forever.

use std::collections::{HashMap, HashSet};
use zeroer_core::UnionFind;
use zeroer_tabular::{Record, Schema, Table};
use zeroer_textsim::derive::{DeriveConfig, DerivedRecord, Deriver};
use zeroer_textsim::intern::Interner;

/// Fail fast on a blocking attribute the schema lacks — the derivation
/// would otherwise silently produce empty key sets for every record.
fn check_block_attr(cfg: &DeriveConfig, arity: usize) {
    if let Some(block) = &cfg.block {
        assert!(
            block.attr < arity,
            "blocking attribute {} out of range for arity {arity}",
            block.attr
        );
    }
}

/// Holds every ingested record together with its derived forms (token
/// bags, blocking keys — produced exactly once per record by the
/// store-owned [`Deriver`]) and a union-find cluster index (the shared
/// [`zeroer_core::UnionFind`]), so each record resolves to a cluster
/// representative in near-constant amortized time and transitivity is
/// enforced structurally (merging two clusters merges *all* their
/// members).
///
/// The store owns the single token [`Interner`] of the pipeline, and
/// only the pipeline's writer derives through it: the bootstrap and
/// every ingest path, in ingest order. Any two records' bags are
/// therefore directly comparable, and symbols keep their first-intern
/// numbering at any thread count.
#[derive(Debug, Clone)]
pub struct EntityStore {
    table: Table,
    derived: Vec<DerivedRecord>,
    clusters: UnionFind,
    deriver: Deriver,
    /// `tombstones[i]` — record `i` has been retracted.
    tombstones: Vec<bool>,
    /// Number of set tombstones (`len() - live_len()`).
    retracted: usize,
    /// Advances on every retraction and compaction.
    epoch: u64,
    /// Every merge decision ever applied, in application order.
    decisions: Vec<(usize, usize)>,
    /// Record → indices into `decisions` that mention it.
    adjacency: HashMap<usize, Vec<u32>>,
}

/// What a retraction did (see [`EntityStore::retract`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetractOutcome {
    /// The store epoch after the retraction.
    pub epoch: u64,
    /// Size of the connected component that was reset and replayed
    /// (1 = the record was a singleton; nothing needed rebuilding).
    pub component_size: usize,
}

/// What a store-level compaction reclaimed (see [`EntityStore::compact`];
/// the index-side reclaim is reported separately by the pipeline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCompaction {
    /// Decision-log edges dropped because they touch retracted records.
    pub decisions_pruned: usize,
    /// Heap bytes released by clearing retracted records' derivations.
    pub derived_bytes_freed: usize,
}

impl EntityStore {
    /// An empty store over a schema; `cfg` fixes which blocking keys the
    /// derivation extracts.
    ///
    /// # Panics
    /// Panics if `cfg` blocks on an attribute the schema lacks (a
    /// misconfiguration that would otherwise silently derive empty key
    /// sets for every record).
    pub fn new(schema: Schema, cfg: DeriveConfig) -> Self {
        check_block_attr(&cfg, schema.arity());
        Self {
            table: Table::new("entity-store", schema),
            derived: Vec::new(),
            clusters: UnionFind::default(),
            deriver: Deriver::new(cfg),
            tombstones: Vec::new(),
            retracted: 0,
            epoch: 0,
            decisions: Vec::new(),
            adjacency: HashMap::new(),
        }
    }

    /// A store seeded with an already-derived table (the bootstrap path
    /// hands over the featurizer's interner and derivations, so the
    /// records are never derived twice).
    ///
    /// # Panics
    /// Panics if `derived` and `table` disagree on length, or if `cfg`
    /// blocks on an attribute the schema lacks.
    pub fn from_derived(
        table: &Table,
        interner: Interner,
        derived: Vec<DerivedRecord>,
        cfg: DeriveConfig,
    ) -> Self {
        assert_eq!(table.len(), derived.len(), "derivation/table mismatch");
        check_block_attr(&cfg, table.schema().arity());
        let mut clusters = UnionFind::default();
        for _ in 0..table.len() {
            clusters.push();
        }
        Self {
            tombstones: vec![false; table.len()],
            table: table.clone(),
            derived,
            clusters,
            deriver: Deriver::with_interner(interner, cfg),
            retracted: 0,
            epoch: 0,
            decisions: Vec::new(),
            adjacency: HashMap::new(),
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The stored records as a table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The store's interner (the symbol space of every stored bag).
    pub fn interner(&self) -> &Interner {
        self.deriver.interner()
    }

    /// The derivation configuration records are derived under.
    pub fn derive_config(&self) -> DeriveConfig {
        self.deriver.config().clone()
    }

    /// Derived forms of record `idx`.
    pub fn derived(&self, idx: usize) -> &DerivedRecord {
        &self.derived[idx]
    }

    /// Derives a record's forms against the store interner *without*
    /// inserting it (both ingest paths derive, block, then push).
    pub fn derive(&mut self, record: &Record) -> DerivedRecord {
        self.deriver.derive(&record.values)
    }

    /// Appends a record as a fresh singleton entity; returns its index.
    ///
    /// # Panics
    /// Panics if the record arity does not match the schema.
    pub fn push(&mut self, record: Record) -> usize {
        let derived = self.derive(&record);
        self.push_derived(record, derived)
    }

    /// Appends a record whose derivation was already built (the ingest
    /// paths derive before blocking); returns the record index.
    ///
    /// # Panics
    /// Panics if the record arity does not match the schema.
    pub fn push_derived(&mut self, record: Record, derived: DerivedRecord) -> usize {
        self.derived.push(derived);
        self.table.push(record);
        self.tombstones.push(false);
        self.clusters.push()
    }

    /// Cluster representative of record `idx`, with path compression.
    pub fn find(&mut self, idx: usize) -> usize {
        self.clusters.find(idx)
    }

    /// Cluster representative without mutation (no path compression);
    /// useful from shared references.
    pub fn find_readonly(&self, idx: usize) -> usize {
        self.clusters.find_readonly(idx)
    }

    /// Merges the clusters of `a` and `b` (union by rank); returns the
    /// surviving representative. The decision is appended to the match
    /// log so a later retraction of either record (or of a transitive
    /// neighbor) can rebuild the component without it.
    pub fn merge(&mut self, a: usize, b: usize) -> usize {
        if a != b {
            let edge = self.decisions.len() as u32;
            self.decisions.push((a, b));
            self.adjacency.entry(a).or_default().push(edge);
            self.adjacency.entry(b).or_default().push(edge);
        }
        self.clusters.union(a, b)
    }

    /// Whether two records currently resolve to the same entity.
    pub fn same_entity(&self, a: usize, b: usize) -> bool {
        self.clusters.same_set(a, b)
    }

    /// All clusters with at least two members, each sorted, the list
    /// sorted by first member — the same shape `dedup_table` reports.
    /// Retracted records never appear: the component rebuild leaves them
    /// as singletons.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        self.clusters.clusters(2)
    }

    /// Number of distinct *live* entities (clusters, including
    /// singletons; retracted records are excluded).
    pub fn num_entities(&self) -> usize {
        self.clusters.num_sets() - self.retracted
    }

    /// Number of live (non-retracted) records.
    pub fn live_len(&self) -> usize {
        self.len() - self.retracted
    }

    /// Number of retracted records.
    pub fn retracted_count(&self) -> usize {
        self.retracted
    }

    /// Whether record `idx` has been retracted.
    pub fn is_retracted(&self, idx: usize) -> bool {
        self.tombstones.get(idx).copied().unwrap_or(false)
    }

    /// The tombstone flags, indexed by record (the filter the blocking
    /// indexes apply to candidate lookups).
    pub fn tombstones(&self) -> &[bool] {
        &self.tombstones
    }

    /// The store epoch: advances on every retraction and compaction.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Overrides the epoch (snapshot restore re-pins the persisted value
    /// after replaying tombstones one by one).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Number of edges currently held in the match-decision log
    /// (compaction prunes edges that touch retracted records).
    pub fn decision_log_len(&self) -> usize {
        self.decisions.len()
    }

    /// Retracts record `idx`: tombstones it and rebuilds its connected
    /// component's clusters from the decision log as if the record had
    /// never been ingested (see the module docs). The record's slot —
    /// and every other record's index — stays stable.
    ///
    /// # Errors
    /// Fails on an out-of-range index or an already-retracted record.
    pub fn retract(&mut self, idx: usize) -> Result<RetractOutcome, String> {
        if idx >= self.len() {
            return Err(format!(
                "unknown record index {idx} (store holds {} records)",
                self.len()
            ));
        }
        if self.tombstones[idx] {
            return Err(format!("record {idx} is already retracted"));
        }
        self.tombstones[idx] = true;
        self.retracted += 1;
        self.epoch += 1;

        // Collect the *historical* component: everything reachable from
        // `idx` over logged decision edges (tombstoned intermediates
        // included — their edges still connect the component).
        let mut members: Vec<usize> = vec![idx];
        let mut seen: HashSet<usize> = HashSet::from([idx]);
        let mut edges: Vec<u32> = Vec::new();
        let mut edge_seen: HashSet<u32> = HashSet::new();
        let mut frontier = 0;
        while frontier < members.len() {
            let node = members[frontier];
            frontier += 1;
            if let Some(adj) = self.adjacency.get(&node) {
                for &e in adj {
                    if !edge_seen.insert(e) {
                        continue;
                    }
                    edges.push(e);
                    let (a, b) = self.decisions[e as usize];
                    let other = if a == node { b } else { a };
                    if seen.insert(other) {
                        members.push(other);
                    }
                }
            }
        }
        let component_size = members.len();
        if component_size > 1 {
            self.clusters.reset_members(&members);
            // Replay the component's surviving decisions in log order —
            // deterministic, so any observer (including the parallel
            // ingest writer) sees one canonical rebuilt state.
            edges.sort_unstable();
            for &e in &edges {
                let (a, b) = self.decisions[e as usize];
                if !self.tombstones[a] && !self.tombstones[b] {
                    self.clusters.union(a, b);
                }
            }
        }
        Ok(RetractOutcome {
            epoch: self.epoch,
            component_size,
        })
    }

    /// Store-side compaction: prunes decision-log edges that touch
    /// retracted records (rebuilding the adjacency) and clears retracted
    /// records' derivations, releasing their token bags. Advances the
    /// epoch. Cluster state is untouched — every pruned edge was already
    /// skipped by any rebuild.
    pub fn compact(&mut self) -> StoreCompaction {
        self.epoch += 1;
        let mut out = StoreCompaction::default();
        let before = self.decisions.len();
        let tombstones = &self.tombstones;
        self.decisions
            .retain(|&(a, b)| !tombstones[a] && !tombstones[b]);
        out.decisions_pruned = before - self.decisions.len();
        if out.decisions_pruned > 0 {
            self.adjacency.clear();
            for (e, &(a, b)) in self.decisions.iter().enumerate() {
                self.adjacency.entry(a).or_default().push(e as u32);
                self.adjacency.entry(b).or_default().push(e as u32);
            }
        }
        for (i, dead) in self.tombstones.iter().enumerate() {
            if *dead && self.derived[i].arity() > 0 {
                out.derived_bytes_freed += self.derived[i].heap_bytes();
                self.derived[i] = DerivedRecord::empty();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroer_tabular::Value;

    fn store_with(n: usize) -> EntityStore {
        let mut s = EntityStore::new(Schema::new(["name"]), DeriveConfig::blocking(0, 4));
        for i in 0..n {
            s.push(Record::new(i as u32, vec![Value::Str(format!("r{i}"))]));
        }
        s
    }

    #[test]
    fn fresh_records_are_singletons() {
        let s = store_with(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.num_entities(), 4);
        assert!(s.clusters().is_empty());
    }

    #[test]
    fn merges_are_transitive() {
        let mut s = store_with(5);
        s.merge(0, 1);
        s.merge(1, 4);
        assert!(s.same_entity(0, 4), "0~1 and 1~4 imply 0~4");
        assert!(!s.same_entity(0, 2));
        assert_eq!(s.num_entities(), 3);
        assert_eq!(s.clusters(), vec![vec![0, 1, 4]]);
    }

    #[test]
    fn merge_is_idempotent() {
        let mut s = store_with(3);
        let r1 = s.merge(0, 1);
        let r2 = s.merge(1, 0);
        assert_eq!(r1, r2);
        assert_eq!(s.num_entities(), 2);
    }

    #[test]
    fn derivation_is_shared_across_records() {
        let mut s = EntityStore::new(Schema::new(["name"]), DeriveConfig::blocking(0, 4));
        s.push(Record::new(0, vec!["golden dragon".into()]));
        s.push(Record::new(1, vec!["golden gate".into()]));
        // "golden" is interned once; both word bags reference it.
        let sym = s.interner().get("golden").expect("token interned");
        assert_eq!(s.derived(0).attr(0).word.count(sym), 1);
        assert_eq!(s.derived(1).attr(0).word.count(sym), 1);
    }

    #[test]
    fn retracting_a_bridge_record_splits_its_component() {
        let mut s = store_with(5);
        s.merge(0, 1);
        s.merge(1, 2);
        assert!(s.same_entity(0, 2), "1 bridges 0 and 2");
        let out = s.retract(1).expect("live record retracts");
        assert_eq!(out.component_size, 3);
        assert_eq!(out.epoch, 1);
        assert!(!s.same_entity(0, 2), "the bridge is gone");
        assert!(s.clusters().is_empty());
        assert_eq!(s.live_len(), 4);
        assert_eq!(s.num_entities(), 4, "four live singletons");
    }

    #[test]
    fn retraction_keeps_surviving_edges_of_the_component() {
        let mut s = store_with(4);
        s.merge(0, 1);
        s.merge(1, 2);
        s.merge(0, 2);
        s.retract(1).unwrap();
        assert!(
            s.same_entity(0, 2),
            "0 and 2 matched directly; losing 1 must not split them"
        );
        assert_eq!(s.clusters(), vec![vec![0, 2]]);
    }

    #[test]
    fn retraction_of_unrelated_records_leaves_components_alone() {
        let mut s = store_with(5);
        s.merge(0, 1);
        s.merge(3, 4);
        s.retract(2).unwrap();
        assert_eq!(s.clusters(), vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn retract_rejects_unknown_and_double_retraction() {
        let mut s = store_with(2);
        assert!(s.retract(9).is_err(), "out of range");
        s.retract(0).unwrap();
        let err = s.retract(0).expect_err("double retraction");
        assert!(err.contains("already retracted"), "{err}");
        assert_eq!(s.epoch(), 1, "the failed retraction must not advance");
    }

    #[test]
    fn compact_prunes_dead_edges_and_frees_derivations() {
        let mut s = store_with(4);
        s.merge(0, 1);
        s.merge(2, 3);
        s.retract(0).unwrap();
        assert_eq!(s.decision_log_len(), 2);
        let out = s.compact();
        assert_eq!(out.decisions_pruned, 1, "the 0-1 edge touches a tombstone");
        assert!(out.derived_bytes_freed > 0, "token bags are released");
        assert_eq!(s.decision_log_len(), 1);
        assert_eq!(s.epoch(), 2);
        // Cluster state is untouched, and further retractions still work
        // against the rebuilt adjacency.
        assert_eq!(s.clusters(), vec![vec![2, 3]]);
        s.retract(2).unwrap();
        assert!(s.clusters().is_empty());
        // Compacting again finds nothing new to prune from live edges.
        let again = s.compact();
        assert_eq!(again.decisions_pruned, 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut s = store_with(1);
        s.push(Record::new(9, vec![Value::Null, Value::Null]));
    }

    #[test]
    #[should_panic(expected = "blocking attribute 5 out of range")]
    fn out_of_range_blocking_attr_panics() {
        EntityStore::new(Schema::new(["name"]), DeriveConfig::blocking(5, 4));
    }
}
