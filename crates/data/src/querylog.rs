//! Query logs: the workload `Q = {q_1 ... q_S}` (§II.A) and the statistics
//! the greedy heuristics consume.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::{AttrMapping, AttrSet, LogIndex, Query, QueryId, Schema, Tuple};

/// Largest `rows × attributes` a [`QueryLog::append`] folds into a
/// carried view by index lookups rather than by hashing the view.
const APPEND_LOOKUP_CELLS: usize = 1024;

/// An immutable collection of conjunctive queries over a shared [`Schema`].
///
/// The query log is "our primary model of what past potential buyers have
/// been interested in" (§I). It is the sole input the SOC-CB-QL algorithms
/// analyze — the database itself is irrelevant for that variant.
///
/// Every query carries a *weight* (a multiplicity, 1 by default). All
/// counting methods — [`QueryLog::satisfied_count`], attribute
/// frequencies, complement supports — sum weights, so a deduplicated log
/// ([`QueryLog::deduplicate`]) yields exactly the same objective values as
/// the raw log while being much smaller. Real query logs are dominated by
/// repeated queries, making this the single most effective preprocessing
/// step before any SOC algorithm runs.
/// Two derivations are built lazily and cached behind `OnceLock`s:
///
/// - the inverted bitmap index ([`LogIndex`]) every counting kernel runs
///   on;
/// - the *distinct view*: the deduplicated log, with its own index.
///   [`QueryLog::project_onto`] reads the queries contained in `t` off
///   the view's index once this log has been projected before (the first
///   projection scans, so a log projected once never pays for the view),
///   and [`QueryLog::append`] carries a built view forward to the grown
///   log.
///
/// The caches never go stale because the log is immutable: every method
/// that produces a *different* log (`filter`, `complement`, `project_onto`,
/// …) builds a new `QueryLog` whose caches start empty, while `Clone`
/// shares the `Arc`'d derivations — valid because the clone holds
/// byte-identical queries and weights. Two methods reuse a derivation on
/// purpose: `deduplicate` returns a copy of the view that is its own view
/// (sharing the view's index once built), and `append` seeds the grown log's view
/// from this one's, merged with the appended rows (its index starts
/// empty).
#[derive(Clone)]
pub struct QueryLog {
    schema: Arc<Schema>,
    queries: Vec<Query>,
    weights: Vec<usize>,
    index: OnceLock<Arc<LogIndex>>,
    /// Distinct queries in first-occurrence order, weights summed.
    distinct: OnceLock<Arc<QueryLog>>,
    /// Set by the first projection, which scans instead of deriving the
    /// view.
    projected: OnceLock<()>,
}

impl QueryLog {
    /// Builds a log from queries over `schema`, all with weight 1.
    ///
    /// # Panics
    /// Panics if any query's universe differs from the schema width.
    pub fn new(schema: Arc<Schema>, queries: Vec<Query>) -> Self {
        let weights = vec![1; queries.len()];
        Self::new_weighted(schema, queries, weights)
    }

    /// Builds a log with explicit per-query weights (multiplicities).
    ///
    /// # Panics
    /// Panics if lengths differ, any weight is zero, or any query's
    /// universe differs from the schema width.
    pub fn new_weighted(schema: Arc<Schema>, queries: Vec<Query>, weights: Vec<usize>) -> Self {
        assert_eq!(queries.len(), weights.len(), "one weight per query");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        for q in &queries {
            assert_eq!(
                q.attrs().universe(),
                schema.len(),
                "query universe does not match schema width"
            );
        }
        Self::from_parts(schema, queries, weights)
    }

    /// Merges duplicate queries, summing their weights: the distinct
    /// queries in first-occurrence order. Objective values computed
    /// against the result equal those of the original log. Returns a
    /// copy of the cached distinct view that is its own view, so repeated
    /// calls cost one `O(distinct)` copy, the result shares the view's
    /// index once built, and projecting it derives nothing further.
    #[must_use]
    pub fn deduplicate(&self) -> QueryLog {
        let view = self.distinct();
        let log = QueryLog::clone(view);
        let _ = log.distinct.set(Arc::clone(view));
        log
    }

    /// The distinct view, derived on first use by one hashing pass over
    /// the log (or inherited from [`QueryLog::append`]).
    fn distinct(&self) -> &Arc<QueryLog> {
        self.distinct.get_or_init(|| {
            let _span = soc_obs::span("log_dedup");
            let mut view = Self::from_parts(Arc::clone(&self.schema), Vec::new(), Vec::new());
            view.fold_distinct(
                &mut HashMap::new(),
                |_| None,
                self.queries.iter().zip(&self.weights),
            );
            Arc::new(view)
        })
    }

    /// Folds `rows` into this distinct log. A query whose id is in `ids`
    /// or found by `known` adds its weight to its row, an unseen one
    /// becomes a new row; either way it joins `ids`.
    fn fold_distinct<'a>(
        &mut self,
        ids: &mut HashMap<&'a Query, u32>,
        known: impl Fn(&Query) -> Option<u32>,
        rows: impl Iterator<Item = (&'a Query, &'a usize)>,
    ) {
        for (q, &w) in rows {
            match ids.entry(q) {
                Entry::Occupied(e) => self.weights[*e.get() as usize] += w,
                Entry::Vacant(e) => match known(q) {
                    Some(id) => {
                        e.insert(id);
                        self.weights[id as usize] += w;
                    }
                    None => {
                        e.insert(
                            u32::try_from(self.queries.len())
                                .expect("query index exceeds u32::MAX"),
                        );
                        self.queries.push(q.clone());
                        self.weights.push(w);
                    }
                },
            }
        }
    }

    /// The id of `q` in this distinct log, read off its index: of the
    /// queries contained in `q`, the one equal to it.
    fn distinct_id(&self, q: &Query) -> Option<u32> {
        self.satisfied_ids(&Tuple::new(q.attrs().clone()))
            .into_iter()
            .find(|&id| self.query(id) == q)
            .map(|id| id.0)
    }

    /// This log with `rows` appended (weights travel with their queries;
    /// this log's schema wins). When this log's distinct view is built,
    /// the result inherits one derived from it — a copy of the distinct
    /// rows with the appended ones folded in, never a full dedup — so
    /// projections after an append keep reading a view.
    ///
    /// A small append looks each row up on the view's index
    /// (`O(M · distinct/64)` words per row, ≈20 µs at 2.4·10⁴ distinct
    /// queries and M = 32 on a 2-vCPU VM); a larger one hashes the view
    /// once (≈1 ms there). Both costs grow with the view, so the
    /// crossover depends on rows × attributes alone: about 50 rows at
    /// M = 32, and `APPEND_LOOKUP_CELLS` stays below it.
    ///
    /// # Panics
    /// Panics if `rows` has a different attribute width.
    #[must_use]
    pub fn append(&self, rows: &QueryLog) -> QueryLog {
        assert_eq!(
            rows.num_attrs(),
            self.num_attrs(),
            "appended rows do not match schema width"
        );
        let merged = Self::from_parts(
            Arc::clone(&self.schema),
            [self.queries.as_slice(), &rows.queries].concat(),
            [self.weights.as_slice(), &rows.weights].concat(),
        );
        if let Some(view) = self.distinct.get() {
            let _span = soc_obs::span("log_dedup");
            let lookup = rows.len() * self.num_attrs() <= APPEND_LOOKUP_CELLS;
            let mut ids: HashMap<&Query, u32> = if lookup {
                HashMap::new()
            } else {
                view.queries.iter().zip(0..).collect()
            };
            let mut next = Self::from_parts(
                Arc::clone(&self.schema),
                view.queries.clone(),
                view.weights.clone(),
            );
            next.fold_distinct(
                &mut ids,
                |q| lookup.then(|| view.distinct_id(q)).flatten(),
                rows.queries.iter().zip(&rows.weights),
            );
            let _ = merged.distinct.set(Arc::new(next));
        }
        merged
    }

    /// A log over already validated parts, with empty caches.
    fn from_parts(schema: Arc<Schema>, queries: Vec<Query>, weights: Vec<usize>) -> QueryLog {
        QueryLog {
            schema,
            queries,
            weights,
            index: OnceLock::new(),
            distinct: OnceLock::new(),
            projected: OnceLock::new(),
        }
    }

    /// The weight (multiplicity) of a query.
    pub fn weight(&self, id: QueryId) -> usize {
        self.weights[id.0 as usize]
    }

    /// Sum of all query weights (the size of the log before
    /// deduplication).
    pub fn total_weight(&self) -> usize {
        self.weights.iter().sum()
    }

    /// Builds a log over an anonymous schema directly from attribute sets.
    pub fn from_attr_sets(universe: usize, sets: Vec<AttrSet>) -> Self {
        let schema = Arc::new(Schema::anonymous(universe));
        Self::new(schema, sets.into_iter().map(Query::new).collect())
    }

    /// Parses Fig-1-style bit-vector rows into a log.
    ///
    /// Returns `None` if any row is malformed or rows have differing widths.
    pub fn from_bitstrings(rows: &[&str]) -> Option<Self> {
        let width = rows.first().map_or(0, |r| r.len());
        let mut queries = Vec::with_capacity(rows.len());
        for r in rows {
            if r.len() != width {
                return None;
            }
            queries.push(Query::from_bitstring(r)?);
        }
        Some(Self::new(Arc::new(Schema::anonymous(width)), queries))
    }

    /// The shared schema.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of attributes `M`.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.schema.len()
    }

    /// Number of queries `S`.
    #[inline]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the log holds no queries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries in log order.
    #[inline]
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The query with the given id.
    pub fn query(&self, id: QueryId) -> &Query {
        &self.queries[id.0 as usize]
    }

    /// Iterates `(QueryId, &Query)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &Query)> {
        self.queries.iter().enumerate().map(|(i, q)| {
            (
                QueryId(u32::try_from(i).expect("query index exceeds u32::MAX")),
                q,
            )
        })
    }

    /// The lazily built inverted bitmap index over this log. The first
    /// call pays one `O(S · M/64)` build; afterwards every counting
    /// kernel runs on bitmap words instead of rescanning queries.
    pub fn index(&self) -> &LogIndex {
        self.index.get_or_init(|| Arc::new(LogIndex::build(self)))
    }

    /// The SOC objective: total weight of the queries that retrieve `t`
    /// under conjunctive Boolean semantics (`q ⊆ t`). With unit weights
    /// this is the paper's "number of queries".
    ///
    /// Computed on the [`LogIndex`] as `complement_support(¬t)`, since
    /// `q ⊆ t ⇔ q ∩ ¬t = ∅`.
    pub fn satisfied_count(&self, t: &Tuple) -> usize {
        self.index().satisfied_count(t)
    }

    /// Reference implementation of [`QueryLog::satisfied_count`]: a full
    /// scan with a per-query subset test. Kept as the differential-test
    /// and benchmark baseline for the index.
    pub fn satisfied_count_scan(&self, t: &Tuple) -> usize {
        self.queries
            .iter()
            .zip(&self.weights)
            .filter(|(q, _)| q.matches(t))
            .map(|(_, &w)| w)
            .sum()
    }

    /// Ids of the queries that retrieve `t`, ascending, read off the
    /// [`LogIndex`] (see [`LogIndex::satisfied_ids`]).
    pub fn satisfied_ids(&self, t: &Tuple) -> Vec<QueryId> {
        self.index().satisfied_ids(t)
    }

    /// Total weight of queries that retrieve `t` under *disjunctive*
    /// semantics: `total_weight − complement_support(t)` on the index
    /// (a query shares an attribute with `t` iff it is not disjoint
    /// from `t`; the empty query matches nothing disjunctively).
    pub fn satisfied_count_disjunctive(&self, t: &Tuple) -> usize {
        self.index().satisfied_count_disjunctive(t)
    }

    /// Reference scan implementation of
    /// [`QueryLog::satisfied_count_disjunctive`].
    pub fn satisfied_count_disjunctive_scan(&self, t: &Tuple) -> usize {
        self.queries
            .iter()
            .zip(&self.weights)
            .filter(|(q, _)| q.matches_disjunctive(t))
            .map(|(_, &w)| w)
            .sum()
    }

    /// Restricts the log to queries whose attributes are all present in
    /// `t` — only those can ever be satisfied by a compression of `t`.
    /// Pre-pruning with this shrinks ILP models considerably.
    #[must_use]
    pub fn restrict_to_candidate(&self, t: &Tuple) -> QueryLog {
        self.filter(|q| q.attrs().is_subset(t.attrs()))
    }

    /// Projects the log onto the attributes of `t`: keeps only queries
    /// contained in `t` (the others can never be satisfied by any
    /// compression of `t`), renumbers attributes down to the compact
    /// universe of `t`'s present attributes, and merges queries that
    /// become identical after renumbering into summed weights, in
    /// first-occurrence order.
    ///
    /// For any compression `R ⊆ t`, the total weight of satisfied queries
    /// in the projected log (with `R` mapped via
    /// [`AttrMapping::to_compact`]) equals the SOC objective of `R` in the
    /// original log — see DESIGN.md, "Instance projection".
    ///
    /// The first projection of a log scans it
    /// ([`QueryLog::project_onto_scan`]); later ones read the contained
    /// queries off the cached distinct view's index
    /// ([`LogIndex::satisfied_ids`]), derived at the second projection:
    /// `O(distinct/64)` words plus one remap per kept query. No merge is
    /// needed: renumbering is injective on subsets of `t`, so distinct
    /// contained queries stay distinct, and the view already summed their
    /// duplicates. Both paths return the same log.
    ///
    /// # Panics
    /// Panics if `t`'s universe differs from the schema width.
    #[must_use]
    pub fn project_onto(&self, t: &Tuple) -> (QueryLog, AttrMapping) {
        if self.distinct.get().is_none() && self.projected.set(()).is_ok() {
            return self.project_onto_scan(t);
        }
        let (schema, mapping) = self.projection_frame(t);
        let view = self.distinct();
        let ids = view.satisfied_ids(t);
        let queries = ids
            .iter()
            .map(|&id| Query::new(mapping.to_compact(view.query(id).attrs())))
            .collect();
        let weights = ids.iter().map(|&id| view.weight(id)).collect();
        (Self::from_parts(schema, queries, weights), mapping)
    }

    /// The scan behind a log's first [`QueryLog::project_onto`]: a
    /// per-query subset test and a hash merge of the projected queries.
    /// Also the differential-test and benchmark baseline for the
    /// view-backed projection.
    ///
    /// # Panics
    /// Panics if `t`'s universe differs from the schema width.
    #[must_use]
    pub fn project_onto_scan(&self, t: &Tuple) -> (QueryLog, AttrMapping) {
        let (schema, mapping) = self.projection_frame(t);
        let mut seen: HashMap<Query, usize> = HashMap::new();
        let mut queries: Vec<Query> = Vec::new();
        let mut weights: Vec<usize> = Vec::new();
        for (q, &w) in self.queries.iter().zip(&self.weights) {
            if !q.attrs().is_subset(t.attrs()) {
                continue;
            }
            let projected = Query::new(mapping.to_compact(q.attrs()));
            match seen.get(&projected) {
                Some(&i) => weights[i] += w,
                None => {
                    seen.insert(projected.clone(), queries.len());
                    queries.push(projected);
                    weights.push(w);
                }
            }
        }
        (Self::from_parts(schema, queries, weights), mapping)
    }

    /// The compact schema and mapping of a projection onto `t`.
    fn projection_frame(&self, t: &Tuple) -> (Arc<Schema>, AttrMapping) {
        assert_eq!(
            t.universe(),
            self.num_attrs(),
            "tuple universe does not match schema width"
        );
        let schema = Arc::new(Schema::new(
            t.attrs().iter().map(|i| self.schema.names()[i].clone()),
        ));
        (schema, AttrMapping::for_tuple(t))
    }

    /// Keeps only the queries for which `keep` returns true (weights
    /// travel with their queries).
    #[must_use]
    pub fn filter(&self, mut keep: impl FnMut(&Query) -> bool) -> QueryLog {
        let mut queries = Vec::new();
        let mut weights = Vec::new();
        for (q, &w) in self.queries.iter().zip(&self.weights) {
            if keep(q) {
                queries.push(q.clone());
                weights.push(w);
            }
        }
        Self::from_parts(Arc::clone(&self.schema), queries, weights)
    }

    /// Per-attribute frequency: `freq[j]` = total weight of queries
    /// specifying attribute `j`. This drives the `ConsumeAttr` greedy.
    /// Read straight off the [`LogIndex`] — a borrow, not a copy (the
    /// index is cached on the log, so the slice lives as long as `self`).
    pub fn attribute_frequencies(&self) -> &[usize] {
        self.index().attribute_frequencies()
    }

    /// Reference scan implementation of
    /// [`QueryLog::attribute_frequencies`].
    pub fn attribute_frequencies_scan(&self) -> Vec<usize> {
        let mut freq = vec![0usize; self.num_attrs()];
        for (q, &w) in self.queries.iter().zip(&self.weights) {
            for a in q.attrs().iter() {
                freq[a] += w;
            }
        }
        freq
    }

    /// Total weight of queries that specify *every* attribute in `attrs`
    /// (co-occurrence count). Drives the `ConsumeAttrCumul` greedy.
    ///
    /// Computed as the weighted popcount of the AND of the operand
    /// attributes' bitmap rows in the [`LogIndex`].
    pub fn cooccurrence_count(&self, attrs: &AttrSet) -> usize {
        self.index().cooccurrence_count(attrs)
    }

    /// Reference scan implementation of [`QueryLog::cooccurrence_count`].
    pub fn cooccurrence_count_scan(&self, attrs: &AttrSet) -> usize {
        self.queries
            .iter()
            .zip(&self.weights)
            .filter(|(q, _)| attrs.is_subset(q.attrs()))
            .map(|(_, &w)| w)
            .sum()
    }

    /// Total weight of queries disjoint from `items`, i.e. the support of
    /// `items` in the complemented log `~Q`: `freq_{~Q}(I) = |{q : q ∩ I = ∅}|`.
    ///
    /// This identity lets the MFI algorithm mine the dense complement
    /// without ever materializing it (see DESIGN.md).
    ///
    /// Computed as `total_weight − weight(OR of the operand rows)` on the
    /// [`LogIndex`] — implemented as the weighted popcount of the AND of
    /// the complemented rows, which admits an early exit.
    pub fn complement_support(&self, items: &AttrSet) -> usize {
        self.index().complement_support(items)
    }

    /// Reference scan implementation of [`QueryLog::complement_support`].
    pub fn complement_support_scan(&self, items: &AttrSet) -> usize {
        self.queries
            .iter()
            .zip(&self.weights)
            .filter(|(q, _)| q.attrs().is_disjoint(items))
            .map(|(_, &w)| w)
            .sum()
    }

    /// Materializes the complemented log `~Q` (each query's bit-vector
    /// flipped, weights preserved). Only used by baselines and tests;
    /// production code uses [`QueryLog::complement_support`].
    #[must_use]
    pub fn complement(&self) -> QueryLog {
        Self::from_parts(
            Arc::clone(&self.schema),
            self.queries
                .iter()
                .map(|q| Query::new(q.attrs().complement()))
                .collect(),
            self.weights.clone(),
        )
    }

    /// Summary statistics used by experiment reports.
    pub fn stats(&self) -> QueryLogStats {
        let sizes: Vec<usize> = self.queries.iter().map(Query::len).collect();
        let total: usize = sizes.iter().sum();
        QueryLogStats {
            num_queries: self.len(),
            num_attrs: self.num_attrs(),
            min_query_len: sizes.iter().copied().min().unwrap_or(0),
            max_query_len: sizes.iter().copied().max().unwrap_or(0),
            mean_query_len: if self.is_empty() {
                0.0
            } else {
                total as f64 / self.len() as f64
            },
        }
    }
}

impl fmt::Debug for QueryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryLog")
            .field("num_queries", &self.len())
            .field("num_attrs", &self.num_attrs())
            .finish()
    }
}

/// Shape summary of a query log.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryLogStats {
    /// `S`, the number of queries.
    pub num_queries: usize,
    /// `M`, the number of attributes.
    pub num_attrs: usize,
    /// Fewest attributes specified by any query.
    pub min_query_len: usize,
    /// Most attributes specified by any query.
    pub max_query_len: usize,
    /// Mean attributes per query.
    pub mean_query_len: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The query log of the paper's Fig 1.
    fn fig1_log() -> QueryLog {
        QueryLog::from_bitstrings(&["110000", "100100", "010100", "000101", "001010"]).unwrap()
    }

    #[test]
    fn the_second_projection_derives_the_view() {
        let log = fig1_log();
        let t = Tuple::from_bitstring("110111").unwrap();
        let first = log.project_onto(&t);
        assert!(log.distinct.get().is_none(), "the first projection scans");
        let second = log.project_onto(&t);
        assert!(log.distinct.get().is_some());
        assert_eq!(first.0.queries(), second.0.queries());
        assert_eq!(first.1, second.1);
    }

    #[test]
    fn append_carries_only_a_built_view() {
        let log = fig1_log();
        let rows = QueryLog::from_bitstrings(&["000101", "111000"]).unwrap();
        assert!(log.append(&rows).distinct.get().is_none());
        let view = Arc::clone(log.distinct());
        let merged = log.append(&rows);
        let carried = merged.distinct.get().expect("view carried");
        assert!(!Arc::ptr_eq(carried, &view));
        // Fig 1's q4 gains the repeat; 111000 is new.
        assert_eq!(carried.len(), 6);
        assert_eq!(carried.weights, vec![1, 1, 1, 2, 1, 1]);
    }

    #[test]
    fn a_deduplicated_log_is_its_own_view() {
        let log = QueryLog::from_bitstrings(&["110", "011", "110"]).unwrap();
        let dedup = log.deduplicate();
        let view = log.distinct.get().expect("deduplicate derives the view");
        assert!(Arc::ptr_eq(dedup.distinct.get().unwrap(), view));
        let again = dedup.deduplicate();
        assert!(Arc::ptr_eq(again.distinct.get().unwrap(), view));
        assert_eq!(again.queries(), view.queries());
    }

    #[test]
    fn satisfied_counts_match_paper_example() {
        let log = fig1_log();
        // t' = [1,1,0,1,0,0] satisfies q1, q2, q3 (§II.A).
        let t = Tuple::from_bitstring("110100").unwrap();
        assert_eq!(log.satisfied_count(&t), 3);
        assert_eq!(
            log.satisfied_ids(&t),
            vec![QueryId(0), QueryId(1), QueryId(2)]
        );
    }

    #[test]
    fn attribute_frequencies() {
        let log = fig1_log();
        assert_eq!(log.attribute_frequencies(), vec![2, 2, 1, 3, 1, 1]);
    }

    #[test]
    fn cooccurrence() {
        let log = fig1_log();
        let ac_pd = AttrSet::from_indices(6, [0, 3]); // AC & PowerDoors
        assert_eq!(log.cooccurrence_count(&ac_pd), 1); // only q2
    }

    #[test]
    fn complement_support_equals_materialized() {
        let log = fig1_log();
        let comp = log.complement();
        for items in [
            AttrSet::from_indices(6, [0]),
            AttrSet::from_indices(6, [2, 4]),
            AttrSet::from_indices(6, [1, 2, 5]),
            AttrSet::empty(6),
        ] {
            let direct = log.complement_support(&items);
            let materialized = comp
                .queries()
                .iter()
                .filter(|q| items.is_subset(q.attrs()))
                .count();
            assert_eq!(direct, materialized, "items = {items}");
        }
    }

    #[test]
    fn restrict_to_candidate() {
        let log = fig1_log();
        let t = Tuple::from_bitstring("110111").unwrap(); // Fig 1 new car
        let r = log.restrict_to_candidate(&t);
        // q2 (turbo) and q5 (turbo, auto) reference turbo which t lacks...
        // t = AC, FourDoor, PowerDoors, AutoTrans, PowerBrakes (no Turbo).
        // q1 {0,1} ⊆ t, q2 {0,3} ⊆ t, q3 {1,3} ⊆ t, q4 {3,5} ⊆ t, q5 {2,4} ⊄ t.
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn stats() {
        let log = fig1_log();
        let s = log.stats();
        assert_eq!(s.num_queries, 5);
        assert_eq!(s.num_attrs, 6);
        assert_eq!(s.min_query_len, 2);
        assert_eq!(s.max_query_len, 2);
        assert!((s.mean_query_len - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_log() {
        let log = QueryLog::from_bitstrings(&[]).unwrap();
        assert!(log.is_empty());
        let t = Tuple::from_bitstring("").unwrap();
        assert_eq!(log.satisfied_count(&t), 0);
        assert_eq!(log.stats().mean_query_len, 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn schema_width_enforced() {
        let schema = Arc::new(Schema::anonymous(4));
        let q = Query::from_bitstring("110").unwrap();
        let _ = QueryLog::new(schema, vec![q]);
    }
}

#[cfg(test)]
mod weight_tests {
    use super::*;

    #[test]
    fn dedup_merges_and_preserves_objectives() {
        let raw =
            QueryLog::from_bitstrings(&["1100", "1100", "0011", "1100", "0011", "1000"]).unwrap();
        let dedup = raw.deduplicate();
        assert_eq!(dedup.len(), 3);
        assert_eq!(dedup.total_weight(), 6);
        assert_eq!(dedup.weight(QueryId(0)), 3); // "1100"
        for bits in ["1100", "0011", "1111", "1000", "0000"] {
            let t = Tuple::from_bitstring(bits).unwrap();
            assert_eq!(raw.satisfied_count(&t), dedup.satisfied_count(&t), "{bits}");
            assert_eq!(
                raw.satisfied_count_disjunctive(&t),
                dedup.satisfied_count_disjunctive(&t)
            );
        }
        assert_eq!(raw.attribute_frequencies(), dedup.attribute_frequencies());
        let items = AttrSet::from_indices(4, [0, 1]);
        assert_eq!(
            raw.complement_support(&items),
            dedup.complement_support(&items)
        );
        assert_eq!(
            raw.cooccurrence_count(&items),
            dedup.cooccurrence_count(&items)
        );
    }

    #[test]
    fn filter_preserves_weights() {
        let raw = QueryLog::from_bitstrings(&["1100", "1100", "0011"]).unwrap();
        let dedup = raw.deduplicate();
        let filtered = dedup.filter(|q| q.attrs().contains(0));
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered.weight(QueryId(0)), 2);
    }

    #[test]
    fn unit_weights_by_default() {
        let log = QueryLog::from_bitstrings(&["10", "01"]).unwrap();
        assert_eq!(log.total_weight(), 2);
        assert_eq!(log.weight(QueryId(1)), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let schema = Arc::new(Schema::anonymous(2));
        let q = Query::from_bitstring("10").unwrap();
        let _ = QueryLog::new_weighted(schema, vec![q], vec![0]);
    }

    #[test]
    #[should_panic(expected = "one weight per query")]
    fn weight_arity_checked() {
        let schema = Arc::new(Schema::anonymous(2));
        let q = Query::from_bitstring("10").unwrap();
        let _ = QueryLog::new_weighted(schema, vec![q], vec![1, 2]);
    }
}

#[cfg(test)]
mod projection_tests {
    use super::*;

    #[test]
    fn projection_keeps_only_contained_queries() {
        let log =
            QueryLog::from_bitstrings(&["110000", "100100", "010100", "000101", "001010"]).unwrap();
        let t = Tuple::from_bitstring("110110").unwrap(); // {0,1,3,4}
        let (proj, mapping) = log.project_onto(&t);
        assert_eq!(proj.num_attrs(), 4);
        // q1 {0,1}, q2 {0,3}, q3 {1,3} are ⊆ t; q4 {3,5}, q5 {2,4} are not.
        assert_eq!(proj.len(), 3);
        assert_eq!(proj.total_weight(), 3);
        assert_eq!(
            proj.queries()[1].attrs().to_indices(),
            vec![0, 2] // {0,3} with attr 3 renumbered to compact 2
        );
        assert_eq!(mapping.compact_index(3), Some(2));
        // Kept schema names travel with the projection.
        assert_eq!(proj.schema().names()[2], log.schema().names()[3]);
    }

    #[test]
    fn projection_merges_duplicates_into_weights() {
        // After dropping attr 2 (absent from t), queries "101" and "100"
        // both project to {0} over the compact universe... but projection
        // keeps only *contained* queries, so craft true duplicates instead:
        // two identical contained queries plus one distinct.
        let log = QueryLog::from_bitstrings(&["1100", "1100", "0100", "0011"]).unwrap();
        let t = Tuple::from_bitstring("1101").unwrap();
        let (proj, _) = log.project_onto(&t);
        // "0011" is not ⊆ t; "1100" ×2 merge; "0100" stays.
        assert_eq!(proj.len(), 2);
        assert_eq!(proj.weight(QueryId(0)), 2);
        assert_eq!(proj.weight(QueryId(1)), 1);
        assert_eq!(proj.total_weight(), 3);
    }

    #[test]
    fn projected_objective_equals_original_for_all_compressions() {
        let log = QueryLog::from_bitstrings(&[
            "110000", "100100", "010100", "000101", "001010", "100100", "010000",
        ])
        .unwrap();
        let t = Tuple::from_bitstring("110110").unwrap();
        let (proj, mapping) = log.project_onto(&t);
        // Every subset R ⊆ t must score identically in both universes.
        let kept: Vec<usize> = t.attrs().to_indices();
        for mask in 0u32..(1 << kept.len()) {
            let retained = AttrSet::from_indices(
                6,
                kept.iter()
                    .enumerate()
                    .filter(|&(c, _)| mask >> c & 1 == 1)
                    .map(|(_, &i)| i),
            );
            let full = log.satisfied_count(&Tuple::new(retained.clone()));
            let compact = proj.satisfied_count(&Tuple::new(mapping.to_compact(&retained)));
            assert_eq!(full, compact, "retained = {retained}");
        }
    }

    #[test]
    fn projection_onto_full_tuple_is_dedup() {
        let log = QueryLog::from_bitstrings(&["1100", "1100", "0011"]).unwrap();
        let t = Tuple::from_bitstring("1111").unwrap();
        let (proj, mapping) = log.project_onto(&t);
        assert_eq!(mapping.compact_universe(), 4);
        assert_eq!(proj.len(), 2);
        assert_eq!(proj.total_weight(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn projection_universe_enforced() {
        let log = QueryLog::from_bitstrings(&["1100"]).unwrap();
        let t = Tuple::from_bitstring("110").unwrap();
        let _ = log.project_onto(&t);
    }
}
