//! The hybrid inverted index over a query log.
//!
//! Every SOC algorithm bottoms out in three counting kernels on
//! [`QueryLog`](crate::QueryLog) — `satisfied_count`, `cooccurrence_count`
//! and `complement_support` — and each naive implementation rescans all
//! `S` queries with a per-query subset test. [`LogIndex`] is the standard
//! vertical-layout trick from the frequent-itemset literature (TID lists
//! à la Eclat/MAFIA) with roaring-style **hybrid containers**: each
//! attribute's query-id set is stored either
//!
//! - **dense** — a packed `u64` bitmap over query ids, or
//! - **sparse** — a sorted query-id list, stored word-compressed as
//!   `(word index, 64-bit mask)` entries so kernels move a whole word of
//!   ids per entry instead of one bit per id,
//!
//! chosen at build time by a density threshold (see [`LogIndex::is_sparse`]):
//! a row goes sparse only when it has fewer set bits than its bitmap has
//! words, which guarantees a sparse row holds fewer entries than the
//! dense row it replaces — no sparse kernel path can ever touch more
//! words than the dense pass it avoids. Kernels specialize per container
//! pair:
//!
//! - dense ∧ dense runs cache-blocked, 4-word-unrolled AND+popcount loops
//!   the autovectorizer can lift — independent accumulators per lane, the
//!   accumulator blocked so a k-operand AND streams each block once;
//! - sparse ∧ dense masks each sparse entry against the addressed bitmap
//!   word;
//! - sparse ∧ sparse intersects entry lists by merge on the word index,
//!   galloping when the lengths are lopsided;
//! - complement kernels never materialize a complemented sparse row.
//!   `complement_support` unions the few complemented rows (sparse rows by
//!   entry-cursor OR, dense rows by a streamed block OR) and weighs the
//!   *inverted* block, so a complemented sparse row costs `O(entries)`
//!   instead of an `O(S/64)` AND-NOT sweep. `satisfied_count(t)` — whose
//!   complement set `¬t` contains almost *every* sparse row on a skewed
//!   log — goes the other way: the build precomputes the union of all
//!   sparse rows plus two subtraction tables (per-attribute **solo**
//!   entry spans for bits covered by exactly one sparse row, and a
//!   **shared**-bit CSR listing each multiply-covered id with its
//!   covering attributes), so a call subtracts the `O(|t|)` rows present
//!   in `t` from the precomputed union instead of OR-ing the `O(M)` rows
//!   absent from it. Phantom tail bits cannot arise: inverted blocks are
//!   masked with the tail word pattern before weighing. `satisfied_ids(t)`
//!   walks the set bits of the same blocks instead of weighing them.
//!
//! With unit weights counting is a popcount; with general weights a
//! *blocked weighted popcount* uses per-64-query weight prefix sums so
//! that full accumulator words cost `O(1)` and only fragmented words pay
//! a per-bit weight walk.
//!
//! The semantics are unchanged from the flat-bitmap index:
//!
//! - `cooccurrence_count(A)` is the weighted count of the intersection of
//!   A's rows,
//! - `complement_support(I)` is the weighted count of queries touching no
//!   attribute of I,
//! - `satisfied_count(t)` is `complement_support(¬t)`, because a
//!   conjunctive query retrieves `t` iff it touches no attribute missing
//!   from `t` (`q ⊆ t ⇔ q ∩ ¬t = ∅`).
//!
//! Operand rows are processed rarest-first and every kernel early-exits
//! once the accumulator empties, exactly as the flat index did; the
//! differential suite (`crates/data/tests/index_diff.rs`) proves all
//! kernels bit-identical to the retained `*_scan` baselines across
//! density and weight sweeps.
//!
//! The index is immutable and derived purely from the log's queries and
//! weights; `QueryLog` builds it lazily and caches it in a
//! `OnceLock<Arc<LogIndex>>` (see DESIGN.md for the invalidation rules).

use soc_obs::{counter, sketch};

use crate::{AttrSet, QueryId, QueryLog, Tuple};

/// Words per cache block of the dense kernels: 256 words = 2 KiB per
/// operand row slice, so a handful of operand blocks plus the accumulator
/// block stay resident in L1 while a k-operand AND streams each block
/// exactly once.
const BLOCK_WORDS: usize = 256;

/// Density divisor of the container choice: an attribute row is stored
/// sparse iff `card * SPARSE_DIVISOR < S` — strictly below one query in
/// 64, i.e. fewer set bits than the row's bitmap has words. This is
/// deliberately far below roaring's 1/16 memory break-even: the dense
/// kernels stream 64 ids per word-op, so the sparse path only pays off
/// once a row's *entry count* undercuts the dense row's *word count*,
/// which the 1/64 rule guarantees (`entries ≤ card < S/64 ≤ row_words`).
/// Logs shorter than `SPARSE_DIVISOR` queries never go sparse (except
/// empty rows).
const SPARSE_DIVISOR: usize = 64;

/// Length ratio beyond which sparse ∧ sparse intersection gallops
/// (binary-probes the longer entry list) instead of merging linearly.
const GALLOP_RATIO: usize = 8;

/// Per-attribute container: where this attribute's query-id set lives.
#[derive(Clone, Copy, Debug)]
enum Container {
    /// `dense_words[offset .. offset + row_words]` is the packed bitmap.
    Dense { offset: usize },
    /// `sparse_words[start .. end]` / `sparse_masks[start .. end]` hold
    /// the word-compressed sorted id list: ascending distinct word
    /// indices, each paired with the 64-bit mask of its ids.
    Sparse { start: usize, end: usize },
}

/// A hybrid inverted index: for each attribute, the set of query ids
/// whose query specifies that attribute, stored dense (packed `u64`
/// bitmap) or sparse (word-compressed sorted id list) by density.
#[derive(Debug)]
pub struct LogIndex {
    /// `S`, the number of queries indexed.
    num_queries: usize,
    /// `ceil(S / 64)`: words per dense attribute row.
    row_words: usize,
    /// Per-attribute container descriptors.
    containers: Vec<Container>,
    /// Concatenated dense rows (see [`Container::Dense`]).
    dense_words: Vec<u64>,
    /// Word indices of the concatenated sparse rows (see
    /// [`Container::Sparse`]), ascending within each row.
    sparse_words: Vec<u32>,
    /// Masks parallel to `sparse_words`.
    sparse_masks: Vec<u64>,
    /// Per-query weights, in query-id order.
    weights: Vec<usize>,
    /// Prefix sums of per-64-query weight totals (`row_words + 1` long):
    /// the weight of every query in word `w` is `psum[w+1] - psum[w]`.
    /// Empty when `unit_weights` (popcount suffices).
    word_weight_psum: Vec<usize>,
    /// True when every weight is 1: counting reduces to popcount.
    unit_weights: bool,
    /// Sum of all weights.
    total_weight: usize,
    /// Weighted per-attribute frequency (the weight of each row).
    attr_weight: Vec<usize>,
    /// Unweighted per-attribute cardinality (set bits per row) — the
    /// rarest-first operand ordering key.
    attr_card: Vec<usize>,
    /// Bitmap union of every sparse row (empty when no row is sparse).
    /// `satisfied_count` starts its `¬t` union from this precomputed row
    /// and *subtracts* `t`'s few sparse rows instead of OR-ing `¬t`'s
    /// many per call.
    sparse_union: Vec<u64>,
    /// Per-attribute span into `solo_words`/`solo_masks`: the bits of
    /// that sparse row covered by *no other* sparse row, so they leave
    /// the sparse union exactly when the row's attribute is in `t`.
    /// Dense attributes carry an empty span.
    solo_spans: Vec<(usize, usize)>,
    /// Word indices of the solo entries, ascending within each span.
    solo_words: Vec<u32>,
    /// Masks parallel to `solo_words`.
    solo_masks: Vec<u64>,
    /// Query ids covered by ≥ 2 sparse rows, ascending — such a bit
    /// leaves the sparse union exactly when *every* covering row's
    /// attribute is in `t`. Collectively tiny: sparse rows hold under
    /// `S/64` ids each, so pairwise overlaps are rare.
    shared_ids: Vec<u32>,
    /// Prefix offsets into `shared_cover_rows`, `shared_ids.len() + 1`
    /// long.
    shared_cover_off: Vec<u32>,
    /// Concatenated covering-attribute lists of the shared ids.
    shared_cover_rows: Vec<u32>,
}

impl LogIndex {
    /// Builds the hybrid index: two passes over the log (`O(S · M/64)`
    /// time), with each attribute row stored dense or sparse by the
    /// density rule of [`LogIndex::is_sparse`].
    pub fn build(log: &QueryLog) -> LogIndex {
        Self::build_inner(log, false)
    }

    /// Builds a dense-only index (every row a packed bitmap — the
    /// pre-hybrid flat layout). Kept as the comparison arm of the
    /// `figures index` experiment and the CI kernel smoke; kernels on a
    /// dense-only build answer identically to the hybrid build.
    pub fn build_dense(log: &QueryLog) -> LogIndex {
        Self::build_inner(log, true)
    }

    fn build_inner(log: &QueryLog, force_dense: bool) -> LogIndex {
        let _span = soc_obs::span("index_build");
        let build_start = soc_obs::metrics_then_now();
        let num_queries = log.len();
        let num_attrs = log.num_attrs();
        let row_words = num_queries.div_ceil(64);

        // Pass 1: per-attribute cardinalities and weights decide each
        // container before any row storage is allocated.
        let mut attr_card = vec![0usize; num_attrs];
        let mut attr_weight = vec![0usize; num_attrs];
        let mut weights = Vec::with_capacity(num_queries);
        let mut total_weight = 0usize;
        let mut unit_weights = true;
        for (id, q) in log.iter() {
            let w = log.weight(id);
            weights.push(w);
            total_weight += w;
            unit_weights &= w == 1;
            for a in q.attrs().iter() {
                attr_card[a] += 1;
                attr_weight[a] += w;
            }
        }

        let sparse = |card: usize| !force_dense && card * SPARSE_DIVISOR < num_queries;
        let mut dense_offset = vec![usize::MAX; num_attrs];
        let mut dense_len = 0usize;
        for (a, &card) in attr_card.iter().enumerate() {
            if !sparse(card) {
                dense_offset[a] = dense_len;
                dense_len += row_words;
            }
        }

        // Pass 2: fill the containers. Query ids arrive in increasing
        // order, so each sparse row's word-compressed entries come out
        // sorted (and coalesced per word) with no extra sort.
        let mut dense_words = vec![0u64; dense_len];
        let mut sparse_rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); num_attrs];
        for (id, q) in log.iter() {
            let i = id.0 as usize;
            let (w, mask) = ((i / 64) as u32, 1u64 << (i % 64));
            for a in q.attrs().iter() {
                let offset = dense_offset[a];
                if offset != usize::MAX {
                    dense_words[offset + w as usize] |= mask;
                } else if let Some(last) = sparse_rows[a].last_mut().filter(|e| e.0 == w) {
                    last.1 |= mask;
                } else {
                    sparse_rows[a].push((w, mask));
                }
            }
        }
        let mut containers = Vec::with_capacity(num_attrs);
        let mut sparse_words = Vec::new();
        let mut sparse_masks = Vec::new();
        for (a, row) in sparse_rows.into_iter().enumerate() {
            if dense_offset[a] != usize::MAX {
                containers.push(Container::Dense {
                    offset: dense_offset[a],
                });
            } else {
                let start = sparse_words.len();
                sparse_words.extend(row.iter().map(|&(w, _)| w));
                sparse_masks.extend(row.iter().map(|&(_, m)| m));
                containers.push(Container::Sparse {
                    start,
                    end: sparse_words.len(),
                });
            }
        }

        // Precompute the satisfied_count subtraction tables:
        // satisfied_count's `¬t` spans nearly all sparse rows, so it
        // pays to start from their total union and remove `t`'s few
        // sparse rows rather than re-union `¬t`'s many. All per-bit
        // analysis happens here, once: each sparse row's *solo* bits
        // (covered by that row alone — removable whenever the row is in
        // `t`) and the rare *shared* ids (≥ 2 sparse covers — removable
        // when every cover is in `t`, checked per call against `t`'s
        // attribute set in O(covers)).
        let mut sparse_union = Vec::new();
        let mut solo_spans = vec![(0usize, 0usize); num_attrs];
        let mut solo_words = Vec::new();
        let mut solo_masks = Vec::new();
        let mut shared_ids = Vec::new();
        let mut shared_cover_off = Vec::new();
        let mut shared_cover_rows = Vec::new();
        if !sparse_words.is_empty() {
            sparse_union = vec![0u64; row_words];
            let mut once = vec![0u64; row_words];
            let mut twice = vec![0u64; row_words];
            for (&w, &m) in sparse_words.iter().zip(&sparse_masks) {
                sparse_union[w as usize] |= m;
                twice[w as usize] |= once[w as usize] & m;
                once[w as usize] |= m;
            }
            for (a, c) in containers.iter().enumerate() {
                let &Container::Sparse { start, end } = c else {
                    continue;
                };
                let span_start = solo_words.len();
                for (&w, &m) in sparse_words[start..end]
                    .iter()
                    .zip(&sparse_masks[start..end])
                {
                    let solo = m & !twice[w as usize];
                    if solo != 0 {
                        solo_words.push(w);
                        solo_masks.push(solo);
                    }
                }
                solo_spans[a] = (span_start, solo_words.len());
            }
            // Shared ids (the set bits of `twice`) with their covers,
            // gathered by one pass over all sparse entries.
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for (a, c) in containers.iter().enumerate() {
                let &Container::Sparse { start, end } = c else {
                    continue;
                };
                for (&w, &m) in sparse_words[start..end]
                    .iter()
                    .zip(&sparse_masks[start..end])
                {
                    let mut bits = m & twice[w as usize];
                    while bits != 0 {
                        pairs.push((w * 64 + bits.trailing_zeros(), a as u32));
                        bits &= bits - 1;
                    }
                }
            }
            pairs.sort_unstable();
            for (id, a) in pairs {
                if shared_ids.last() != Some(&id) {
                    shared_ids.push(id);
                    shared_cover_off.push(shared_cover_rows.len() as u32);
                }
                shared_cover_rows.push(a);
            }
            shared_cover_off.push(shared_cover_rows.len() as u32);
        }

        // Per-word weight prefix sums back the blocked weighted popcount;
        // with unit weights a popcount is exact and the table is skipped.
        let word_weight_psum = if unit_weights {
            Vec::new()
        } else {
            let mut psum = Vec::with_capacity(row_words + 1);
            psum.push(0usize);
            let mut acc = 0usize;
            for (i, &w) in weights.iter().enumerate() {
                acc += w;
                if i % 64 == 63 {
                    psum.push(acc);
                }
            }
            if !num_queries.is_multiple_of(64) {
                psum.push(acc);
            }
            psum
        };

        if let Some(t0) = build_start {
            sketch!("index.build_us").record(soc_obs::clock::elapsed_us(t0));
        }
        LogIndex {
            num_queries,
            row_words,
            containers,
            dense_words,
            sparse_words,
            sparse_masks,
            weights,
            word_weight_psum,
            unit_weights,
            total_weight,
            attr_weight,
            attr_card,
            sparse_union,
            solo_spans,
            solo_words,
            solo_masks,
            shared_ids,
            shared_cover_off,
            shared_cover_rows,
        }
    }

    /// `S`, the number of queries indexed.
    #[inline]
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// Sum of all query weights.
    #[inline]
    pub fn total_weight(&self) -> usize {
        self.total_weight
    }

    /// Weighted per-attribute frequencies (`freq[j]` = total weight of
    /// queries specifying attribute `j`), read straight off the index
    /// with no copy.
    #[inline]
    pub fn attribute_frequencies(&self) -> &[usize] {
        &self.attr_weight
    }

    /// True if attribute `a`'s row is stored as a word-compressed sorted
    /// id list rather than a bitmap. Exposed for the container-mix
    /// reporting of the `figures index` experiment and the
    /// threshold-boundary tests.
    #[inline]
    pub fn is_sparse(&self, a: usize) -> bool {
        matches!(self.containers[a], Container::Sparse { .. })
    }

    /// Number of sparse-container attributes.
    pub fn sparse_rows(&self) -> usize {
        self.containers
            .iter()
            .filter(|c| matches!(c, Container::Sparse { .. }))
            .count()
    }

    /// Bytes of row storage (dense words, sparse entries, and the
    /// precomputed sparse-union row plus cover counts) — the memory the
    /// hybrid layout saves over a flat `M × S/64` bitmap.
    pub fn row_bytes(&self) -> usize {
        self.dense_words.len() * 8
            + self.sparse_words.len() * 4
            + self.sparse_masks.len() * 8
            + self.sparse_union.len() * 8
            + self.solo_words.len() * 4
            + self.solo_masks.len() * 8
            + (self.shared_ids.len() + self.shared_cover_off.len() + self.shared_cover_rows.len())
                * 4
    }

    /// The dense bitmap row of one attribute, if it is stored dense.
    #[inline]
    fn dense_row(&self, a: usize) -> Option<&[u64]> {
        match self.containers[a] {
            Container::Dense { offset } => Some(&self.dense_words[offset..offset + self.row_words]),
            Container::Sparse { .. } => None,
        }
    }

    /// The word-compressed entry list of one attribute — parallel
    /// `(word indices, masks)` slices — if it is stored sparse.
    #[inline]
    fn sparse_row(&self, a: usize) -> Option<(&[u32], &[u64])> {
        match self.containers[a] {
            Container::Dense { .. } => None,
            Container::Sparse { start, end } => Some((
                &self.sparse_words[start..end],
                &self.sparse_masks[start..end],
            )),
        }
    }

    /// Streams the nonzero words of attribute `a`'s id-set row as
    /// `(word index, bits)` pairs regardless of container. In-crate
    /// consumers (the clusterer's single-pass assignment) fold rows into
    /// per-query accumulators without re-materializing query vectors; a
    /// sparse row costs `O(entries)`, a dense row `O(S/64)`.
    pub(crate) fn for_each_row_word(&self, a: usize, mut f: impl FnMut(usize, u64)) {
        match self.containers[a] {
            Container::Dense { offset } => {
                let row = &self.dense_words[offset..offset + self.row_words];
                for (w, &bits) in row.iter().enumerate() {
                    if bits != 0 {
                        f(w, bits);
                    }
                }
            }
            Container::Sparse { start, end } => {
                for (&w, &m) in self.sparse_words[start..end]
                    .iter()
                    .zip(&self.sparse_masks[start..end])
                {
                    f(w as usize, m);
                }
            }
        }
    }

    /// All-ones mask of the live bits of word `wi` (the final word's tail
    /// bits past `S` are clear, so complemented accumulators never hold
    /// phantom query ids).
    #[inline]
    fn full_word(&self, wi: usize) -> u64 {
        let tail = self.num_queries % 64;
        if wi + 1 == self.row_words && tail != 0 {
            (1u64 << tail) - 1
        } else {
            !0u64
        }
    }

    /// An accumulator with a set bit for every query id.
    fn full_acc(&self) -> Vec<u64> {
        let mut acc = vec![!0u64; self.row_words];
        if self.row_words > 0 {
            acc[self.row_words - 1] = self.full_word(self.row_words - 1);
        }
        acc
    }

    /// Blocked weighted popcount of one accumulator word: a full word is
    /// answered from the weight prefix sums in `O(1)`, a fragmented word
    /// walks its set bits.
    #[inline]
    fn weigh_word(&self, wi: usize, word: u64) -> usize {
        debug_assert!(!self.unit_weights);
        if word == 0 {
            return 0;
        }
        if word == self.full_word(wi) {
            return self.word_weight_psum[wi + 1] - self.word_weight_psum[wi];
        }
        let mut sum = 0usize;
        let mut bits = word;
        while bits != 0 {
            let i = wi * 64 + bits.trailing_zeros() as usize;
            sum += self.weights[i];
            bits &= bits - 1;
        }
        sum
    }

    /// Total weight of the queries whose bits are set in `acc`, where
    /// `acc[0]` is word `word_base` of the id space.
    fn weigh_words(&self, word_base: usize, acc: &[u64]) -> usize {
        if self.unit_weights {
            return popcount_unrolled(acc);
        }
        acc.iter()
            .enumerate()
            .map(|(i, &w)| self.weigh_word(word_base + i, w))
            .sum()
    }

    /// Total weight of queries specifying *every* attribute in `attrs`:
    /// the intersection of the operand rows, weighed. An empty `attrs`
    /// co-occurs in every query.
    pub fn cooccurrence_count(&self, attrs: &AttrSet) -> usize {
        counter!("index.kernel_calls").inc();
        let mut ops: Vec<usize> = attrs.iter().collect();
        if ops.is_empty() {
            return self.total_weight;
        }
        // Rarest row first: the accumulator starts as small as possible
        // and every later operand can only shrink it. Sparse rows (by
        // the density rule strictly smaller than any dense row) sort to
        // the front, so "first operand sparse" ⇔ "any operand sparse".
        ops.sort_by_key(|&a| (self.attr_card[a], a));
        if self.attr_card[ops[0]] == 0 {
            return 0;
        }
        match self.containers[ops[0]] {
            Container::Sparse { .. } => self.cooccurrence_sparse(&ops),
            Container::Dense { .. } => self.cooccurrence_dense(&ops),
        }
    }

    /// Sparse-accumulator intersection: start from the rarest (sparse)
    /// row's entry list, filter through the middle operands — word-merge
    /// (galloping when lopsided) against sparse rows, one addressed
    /// bitmap word per entry against dense ones — and fuse the final
    /// operand into the weigh pass, so the dominant two-operand call
    /// allocates nothing at all. The working set never exceeds the
    /// rarest row's entry count, which the density rule bounds below the
    /// dense row's word count.
    fn cooccurrence_sparse(&self, ops: &[usize]) -> usize {
        let (w0, m0) = self.sparse_row(ops[0]).expect("rarest operand is sparse");
        if ops.len() == 1 {
            return self.weigh_entries(w0, m0);
        }
        // Middle operands (all but the last) filter into owned buffers.
        let mut owned: Option<(Vec<u32>, Vec<u64>)> = None;
        if ops.len() > 2 {
            let mut words: Vec<u32> = w0.to_vec();
            let mut masks: Vec<u64> = m0.to_vec();
            for &a in &ops[1..ops.len() - 1] {
                match self.containers[a] {
                    Container::Dense { offset } => {
                        let row = &self.dense_words[offset..offset + self.row_words];
                        let mut k = 0usize;
                        for i in 0..words.len() {
                            let m = masks[i] & row[words[i] as usize];
                            if m != 0 {
                                words[k] = words[i];
                                masks[k] = m;
                                k += 1;
                            }
                        }
                        words.truncate(k);
                        masks.truncate(k);
                    }
                    Container::Sparse { start, end } => {
                        intersect_entries(
                            &mut words,
                            &mut masks,
                            &self.sparse_words[start..end],
                            &self.sparse_masks[start..end],
                        );
                    }
                }
                if words.is_empty() {
                    return 0;
                }
            }
            owned = Some((words, masks));
        }
        let (cw, cm) = owned
            .as_ref()
            .map_or((w0, m0), |(w, m)| (w.as_slice(), m.as_slice()));
        // Final operand, fused with the weigh pass.
        match self.containers[*ops.last().expect("ops is non-empty")] {
            Container::Dense { offset } => {
                let row = &self.dense_words[offset..offset + self.row_words];
                cw.iter()
                    .zip(cm)
                    .map(|(&w, &m)| self.weigh_masked(w as usize, m & row[w as usize]))
                    .sum()
            }
            Container::Sparse { start, end } => {
                let (bw, bm) = (
                    &self.sparse_words[start..end],
                    &self.sparse_masks[start..end],
                );
                let mut sum = 0usize;
                let mut j = 0usize;
                for (i, &x) in cw.iter().enumerate() {
                    while j < bw.len() && bw[j] < x {
                        j += 1;
                    }
                    if j == bw.len() {
                        break;
                    }
                    if bw[j] == x {
                        sum += self.weigh_masked(x as usize, cm[i] & bm[j]);
                    }
                }
                sum
            }
        }
    }

    /// Weight of the ids in one `(word, mask)` entry: popcount under
    /// unit weights, the blocked weighted popcount otherwise.
    #[inline]
    fn weigh_masked(&self, wi: usize, mask: u64) -> usize {
        if self.unit_weights {
            mask.count_ones() as usize
        } else if mask == 0 {
            0
        } else {
            self.weigh_word(wi, mask)
        }
    }

    /// Weight of a whole word-compressed entry list.
    fn weigh_entries(&self, words: &[u32], masks: &[u64]) -> usize {
        if self.unit_weights {
            masks.iter().map(|m| m.count_ones() as usize).sum()
        } else {
            words
                .iter()
                .zip(masks)
                .map(|(&w, &m)| self.weigh_word(w as usize, m))
                .sum()
        }
    }

    /// Dense ∧ dense intersection, cache-blocked: for each block of the
    /// id space, AND every operand's block into a stack accumulator
    /// (4-word unrolled, early exit the moment the block empties) and
    /// count it — each block is streamed once per operand while hot.
    fn cooccurrence_dense(&self, ops: &[usize]) -> usize {
        let rows: Vec<&[u64]> = ops
            .iter()
            .map(|&a| self.dense_row(a).expect("dense path operand"))
            .collect();
        let mut block = [0u64; BLOCK_WORDS];
        let mut sum = 0usize;
        let mut start = 0usize;
        while start < self.row_words {
            let end = (start + BLOCK_WORDS).min(self.row_words);
            let width = end - start;
            let acc = &mut block[..width];
            acc.copy_from_slice(&rows[0][start..end]);
            let mut live = acc.iter().any(|&w| w != 0);
            for row in &rows[1..] {
                if !live {
                    break;
                }
                live = and_block(acc, &row[start..end]);
            }
            if live {
                sum += self.weigh_words(start, acc);
            }
            start = end;
        }
        sum
    }

    /// Total weight of queries disjoint from `items` — the support of
    /// `items` in the complemented log `~Q`.
    pub fn complement_support(&self, items: &AttrSet) -> usize {
        counter!("index.kernel_calls").inc();
        self.complement_weight(items.iter())
    }

    /// The SOC objective: total weight of queries `q ⊆ t`, computed as
    /// `complement_support(¬t)` without materializing `¬t`: the
    /// weighed blocks of [`LogIndex::for_each_contained_block`].
    pub fn satisfied_count(&self, t: &Tuple) -> usize {
        counter!("index.kernel_calls").inc();
        let mut sum = 0usize;
        self.for_each_contained_block(t, |start, b| sum += self.weigh_words(start, b));
        sum
    }

    /// Ids of the queries `q ⊆ t`, ascending: the set bits of the blocks
    /// of [`LogIndex::for_each_contained_block`], so the cost is
    /// `O(S/64)` words plus `O(answer)`.
    pub fn satisfied_ids(&self, t: &Tuple) -> Vec<QueryId> {
        counter!("index.kernel_calls").inc();
        let mut ids = Vec::new();
        self.for_each_contained_block(t, |start, b| {
            for (i, &word) in b.iter().enumerate() {
                let base = ((start + i) * 64) as u32;
                let mut bits = word;
                while bits != 0 {
                    ids.push(QueryId(base + bits.trailing_zeros()));
                    bits &= bits - 1;
                }
            }
        });
        ids
    }

    /// The blocked `¬t` pass behind [`LogIndex::satisfied_count`] and
    /// [`LogIndex::satisfied_ids`]: hands `f` each block of the id space
    /// as `(first word index, words)`, with a bit set for exactly the
    /// queries `q ⊆ t` (`q ∩ ¬t = ∅`).
    ///
    /// With sparse rows present, `¬t` spans nearly *all* of them, so the
    /// sparse half of the union is answered by subtraction: start from
    /// the precomputed all-sparse union and clear only the bits whose
    /// every sparse cover lies inside `t` — read straight off the
    /// build-time solo/shared tables, `O(entries in t's sparse rows)`
    /// instead of `O(ids in ¬t's)`. The dense `¬t` rows then stream over
    /// the result block by block, and the block is inverted in place.
    fn for_each_contained_block(&self, t: &Tuple, mut f: impl FnMut(usize, &[u64])) {
        let tset = t.attrs();
        let absent = tset.complement();
        let dense_not: Vec<&[u64]> = absent.iter().filter_map(|a| self.dense_row(a)).collect();

        // Removal lists, straight off the build-time tables: each `t`
        // sparse row contributes its solo entries verbatim, and the rare
        // shared ids join when every covering row is in `t` (an O(covers)
        // bitset test), coalesced into word-compressed entries. Both are
        // empty when no row is sparse.
        let mut rem: Vec<(&[u32], &[u64])> = Vec::new();
        for a in tset.iter() {
            let (s, e) = self.solo_spans[a];
            if s != e {
                rem.push((&self.solo_words[s..e], &self.solo_masks[s..e]));
            }
        }
        let mut shared_w: Vec<u32> = Vec::new();
        let mut shared_m: Vec<u64> = Vec::new();
        for (i, &id) in self.shared_ids.iter().enumerate() {
            let covers = &self.shared_cover_rows
                [self.shared_cover_off[i] as usize..self.shared_cover_off[i + 1] as usize];
            if covers.iter().all(|&a| tset.contains(a as usize)) {
                let (w, mask) = (id / 64, 1u64 << (id % 64));
                if shared_w.last() == Some(&w) {
                    *shared_m.last_mut().expect("parallel to shared_w") |= mask;
                } else {
                    shared_w.push(w);
                    shared_m.push(mask);
                }
            }
        }
        if !shared_w.is_empty() {
            rem.push((&shared_w, &shared_m));
        }

        // Blocked pass: sparse union minus removals, dense `¬t` rows
        // OR-ed over it, inverted in place. Only live ids ever enter the
        // union, so inverting against `full_word` cannot leak phantom
        // tail bits.
        let mut cursors = vec![0usize; rem.len()];
        let mut block = [0u64; BLOCK_WORDS];
        let mut start = 0usize;
        while start < self.row_words {
            let end = (start + BLOCK_WORDS).min(self.row_words);
            let width = end - start;
            let b = &mut block[..width];
            if self.sparse_union.is_empty() {
                b.fill(0);
            } else {
                b.copy_from_slice(&self.sparse_union[start..end]);
            }
            for (cursor, (rw, rm)) in cursors.iter_mut().zip(&rem) {
                while *cursor < rw.len() && (rw[*cursor] as usize) < end {
                    b[rw[*cursor] as usize - start] &= !rm[*cursor];
                    *cursor += 1;
                }
            }
            for row in &dense_not {
                or_block(b, &row[start..end]);
            }
            for w in b.iter_mut() {
                *w = !*w;
            }
            if end == self.row_words {
                b[width - 1] &= self.full_word(end - 1);
            }
            f(start, b);
            start = end;
        }
    }

    /// Total weight of queries touching *no* attribute in `ops`.
    ///
    /// With no sparse operand the classic pass runs: all-ones
    /// accumulator, AND-NOT each dense row (heaviest first, exiting the
    /// moment it empties), weigh what survives. The moment sparse
    /// operands appear the accumulator flips polarity: OR their
    /// word-compressed entries into a *zeroed* buffer — only live ids
    /// are ever set, so no phantom tail bits appear and the all-ones
    /// initialization pass disappears — then fold any dense rows into
    /// the union and weigh its complement in a single fused read-only
    /// pass.
    fn complement_weight(&self, ops: impl Iterator<Item = usize>) -> usize {
        let mut dense: Vec<usize> = Vec::new();
        let mut sparse: Vec<usize> = Vec::new();
        for a in ops {
            match self.containers[a] {
                Container::Dense { .. } => dense.push(a),
                Container::Sparse { .. } => sparse.push(a),
            }
        }
        if sparse.is_empty() {
            if dense.is_empty() {
                return self.total_weight;
            }
            let mut acc = self.full_acc();
            self.clear_rows(&mut acc, &mut dense);
            return self.weigh_words(0, &acc);
        }
        // Cache-blocked union-and-weigh: per block of the id space, OR
        // each sparse row's in-range entries (their sorted word order
        // makes one advancing cursor per row sufficient) and stream each
        // dense row over the block, then invert and weigh on the spot.
        // Nothing row-sized is ever allocated or written back: the block
        // stays L1-resident, the dense rows are only read, and only live
        // ids are ever set, so inverting against `full_word` cannot leak
        // phantom tail bits.
        let rows: Vec<&[u64]> = dense
            .iter()
            .map(|&a| self.dense_row(a).expect("partitioned as dense"))
            .collect();
        let lists: Vec<(&[u32], &[u64])> = sparse
            .iter()
            .map(|&a| self.sparse_row(a).expect("partitioned as sparse"))
            .collect();
        let mut cursors = vec![0usize; lists.len()];
        let mut block = [0u64; BLOCK_WORDS];
        let mut sum = 0usize;
        let mut start = 0usize;
        while start < self.row_words {
            let end = (start + BLOCK_WORDS).min(self.row_words);
            let width = end - start;
            let b = &mut block[..width];
            b.fill(0);
            for (cursor, &(words, masks)) in cursors.iter_mut().zip(&lists) {
                while *cursor < words.len() && (words[*cursor] as usize) < end {
                    b[words[*cursor] as usize - start] |= masks[*cursor];
                    *cursor += 1;
                }
            }
            for row in &rows {
                or_block(b, &row[start..end]);
            }
            for w in b.iter_mut() {
                *w = !*w;
            }
            if end == self.row_words {
                b[width - 1] &= self.full_word(end - 1);
            }
            sum += self.weigh_words(start, b);
            start = end;
        }
        sum
    }

    /// Total weight of queries sharing at least one attribute with `t`
    /// (disjunctive semantics): everything except the queries disjoint
    /// from `t`. Note the empty query matches *nothing* disjunctively.
    pub fn satisfied_count_disjunctive(&self, t: &Tuple) -> usize {
        self.total_weight - self.complement_support(t.attrs())
    }

    /// Clears from `acc` every query touching any attribute in `dense`
    /// (all of which must be dense rows): AND-NOT word-wise, heaviest
    /// row first so the accumulator empties as early as possible, and
    /// exit the moment it does.
    fn clear_rows(&self, acc: &mut [u64], dense: &mut [usize]) {
        dense.sort_by_key(|&a| (std::cmp::Reverse(self.attr_card[a]), a));
        for &a in dense.iter() {
            let row = self.dense_row(a).expect("partitioned as dense");
            let mut any = 0u64;
            for (acc_w, &row_w) in acc.iter_mut().zip(row) {
                *acc_w &= !row_w;
                any |= *acc_w;
            }
            if any == 0 {
                return;
            }
        }
    }
}

/// `acc |= row`: a plain two-stream OR the autovectorizer handles on
/// its own (no reduction to carry, unlike [`and_block`]).
#[inline]
fn or_block(acc: &mut [u64], row: &[u64]) {
    debug_assert_eq!(acc.len(), row.len());
    for (a, &r) in acc.iter_mut().zip(row) {
        *a |= r;
    }
}

/// `acc &= row`, 4-word unrolled with independent OR lanes so the
/// autovectorizer can lift both the ANDs and the liveness reduction.
/// Returns whether any accumulator word is still nonzero.
#[inline]
fn and_block(acc: &mut [u64], row: &[u64]) -> bool {
    debug_assert_eq!(acc.len(), row.len());
    let split = acc.len() - acc.len() % 4;
    let (acc4, acc_tail) = acc.split_at_mut(split);
    let (row4, row_tail) = row.split_at(split);
    let mut lanes = [0u64; 4];
    for (a, r) in acc4.chunks_exact_mut(4).zip(row4.chunks_exact(4)) {
        a[0] &= r[0];
        a[1] &= r[1];
        a[2] &= r[2];
        a[3] &= r[3];
        lanes[0] |= a[0];
        lanes[1] |= a[1];
        lanes[2] |= a[2];
        lanes[3] |= a[3];
    }
    let mut tail_any = 0u64;
    for (a, &r) in acc_tail.iter_mut().zip(row_tail) {
        *a &= r;
        tail_any |= *a;
    }
    (lanes[0] | lanes[1] | lanes[2] | lanes[3] | tail_any) != 0
}

/// Popcount of a word slice with 4 independent accumulators.
#[inline]
fn popcount_unrolled(words: &[u64]) -> usize {
    let mut lanes = [0usize; 4];
    for w in words.chunks_exact(4) {
        lanes[0] += w[0].count_ones() as usize;
        lanes[1] += w[1].count_ones() as usize;
        lanes[2] += w[2].count_ones() as usize;
        lanes[3] += w[3].count_ones() as usize;
    }
    let tail: usize = words
        .chunks_exact(4)
        .remainder()
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum();
    lanes[0] + lanes[1] + lanes[2] + lanes[3] + tail
}

/// In-place intersection of a word-compressed entry list with another:
/// entries survive when both rows share the word *and* their masks
/// overlap. Linear merge on the word index when the lengths are
/// comparable, galloping probes of the longer list when lopsided.
fn intersect_entries(words: &mut Vec<u32>, masks: &mut Vec<u64>, bw: &[u32], bm: &[u64]) {
    debug_assert_eq!(words.len(), masks.len());
    debug_assert_eq!(bw.len(), bm.len());
    let mut k = 0usize;
    if bw.len() / words.len().max(1) >= GALLOP_RATIO {
        // Gallop: for each surviving entry, exponentially bound a window
        // of the longer list's remaining suffix, then binary-search it —
        // O(Σ log gap) instead of a full linear merge.
        let mut base = 0usize;
        for i in 0..words.len() {
            let suffix = &bw[base..];
            if suffix.is_empty() {
                break;
            }
            let x = words[i];
            let mut bound = 1usize;
            while bound < suffix.len() && suffix[bound - 1] < x {
                bound *= 2;
            }
            match suffix[..bound.min(suffix.len())].binary_search(&x) {
                Ok(pos) => {
                    let m = masks[i] & bm[base + pos];
                    if m != 0 {
                        words[k] = x;
                        masks[k] = m;
                        k += 1;
                    }
                    base += pos + 1;
                }
                Err(pos) => base += pos,
            }
        }
    } else {
        let mut j = 0usize;
        for i in 0..words.len() {
            let x = words[i];
            while j < bw.len() && bw[j] < x {
                j += 1;
            }
            if j == bw.len() {
                break;
            }
            if bw[j] == x {
                let m = masks[i] & bm[j];
                if m != 0 {
                    words[k] = x;
                    masks[k] = m;
                    k += 1;
                }
            }
        }
    }
    words.truncate(k);
    masks.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryLog;

    fn fig1_log() -> QueryLog {
        QueryLog::from_bitstrings(&["110000", "100100", "010100", "000101", "001010"]).unwrap()
    }

    /// Materializes attribute `a`'s row as a bitmap regardless of its
    /// container, for layout assertions.
    fn row_bits(idx: &LogIndex, a: usize) -> Vec<u64> {
        if let Some(row) = idx.dense_row(a) {
            return row.to_vec();
        }
        let mut bits = vec![0u64; idx.row_words];
        let (words, masks) = idx.sparse_row(a).unwrap();
        for (&w, &m) in words.iter().zip(masks) {
            bits[w as usize] |= m;
        }
        bits
    }

    #[test]
    fn builds_expected_rows() {
        let log = fig1_log();
        let idx = LogIndex::build(&log);
        assert_eq!(idx.num_queries(), 5);
        assert_eq!(idx.total_weight(), 5);
        // 5 queries < SPARSE_DIVISOR: every container stays dense.
        assert_eq!(idx.sparse_rows(), 0);
        // Attribute 0 appears in q1 and q2 → bits 0 and 1.
        assert_eq!(row_bits(&idx, 0), vec![0b00011]);
        // Attribute 3 appears in q2, q3, q4 → bits 1, 2, 3.
        assert_eq!(row_bits(&idx, 3), vec![0b01110]);
        assert_eq!(idx.attribute_frequencies(), &[2, 2, 1, 3, 1, 1]);
    }

    #[test]
    fn kernels_match_paper_example() {
        let log = fig1_log();
        let idx = LogIndex::build(&log);
        let t = Tuple::from_bitstring("110100").unwrap();
        assert_eq!(idx.satisfied_count(&t), 3);
        assert_eq!(idx.cooccurrence_count(&AttrSet::from_indices(6, [0, 3])), 1);
        assert_eq!(idx.complement_support(&AttrSet::from_indices(6, [2, 4])), 4);
        assert_eq!(idx.cooccurrence_count(&AttrSet::empty(6)), 5);
        assert_eq!(idx.complement_support(&AttrSet::empty(6)), 5);
    }

    #[test]
    fn weighted_counting_uses_weights() {
        let log = fig1_log().deduplicate(); // still unit weights
        let idx = LogIndex::build(&log);
        assert!(idx.unit_weights);

        let weighted = QueryLog::new_weighted(
            std::sync::Arc::clone(fig1_log().schema()),
            fig1_log().queries().to_vec(),
            vec![1, 2, 3, 4, 5],
        );
        let idx = LogIndex::build(&weighted);
        assert!(!idx.unit_weights);
        assert_eq!(idx.total_weight(), 15);
        let t = Tuple::from_bitstring("110100").unwrap();
        // q1 (w=1), q2 (w=2), q3 (w=3) are satisfied.
        assert_eq!(idx.satisfied_count(&t), 6);
        assert_eq!(idx.attribute_frequencies(), &[3, 4, 5, 9, 5, 4]);
        // The weight prefix table covers the single 5-query word.
        assert_eq!(idx.word_weight_psum, vec![0, 15]);
    }

    #[test]
    fn empty_log_counts_are_zero() {
        let log = QueryLog::from_bitstrings(&[]).unwrap();
        let idx = LogIndex::build(&log);
        assert_eq!(idx.total_weight(), 0);
        assert_eq!(idx.satisfied_count(&Tuple::from_bitstring("").unwrap()), 0);
        assert_eq!(idx.complement_support(&AttrSet::empty(0)), 0);
        assert_eq!(idx.cooccurrence_count(&AttrSet::empty(0)), 0);
    }

    #[test]
    fn more_than_64_queries_span_words() {
        let universe = 7;
        let sets: Vec<AttrSet> = (0..150)
            .map(|i| AttrSet::from_indices(universe, [i % universe, (i / 2) % universe]))
            .collect();
        let log = QueryLog::from_attr_sets(universe, sets);
        let idx = LogIndex::build(&log);
        assert_eq!(idx.row_words, 3);
        for a in 0..universe {
            let probe = AttrSet::from_indices(universe, [a]);
            assert_eq!(
                idx.cooccurrence_count(&probe),
                log.cooccurrence_count_scan(&probe)
            );
            assert_eq!(
                idx.complement_support(&probe),
                log.complement_support_scan(&probe)
            );
        }
    }

    #[test]
    fn density_threshold_selects_containers() {
        // 640 queries: attr 0 in every query (dense), attr 1 in exactly 9
        // (9 * 64 = 576 < 640 → sparse), attr 2 in exactly 10
        // (10 * 64 = 640, not < 640 → dense: the boundary is strict).
        let universe = 3;
        let sets: Vec<AttrSet> = (0..640)
            .map(|i| {
                AttrSet::from_indices(
                    universe,
                    (0..universe).filter(|&a| match a {
                        0 => true,
                        1 => i < 9,
                        _ => i < 10,
                    }),
                )
            })
            .collect();
        let log = QueryLog::from_attr_sets(universe, sets);
        let idx = LogIndex::build(&log);
        assert!(!idx.is_sparse(0));
        assert!(idx.is_sparse(1));
        assert!(!idx.is_sparse(2));
        assert_eq!(idx.sparse_rows(), 1);

        // Mixed-container operand sets hit every kernel specialization.
        for probe in [
            AttrSet::from_indices(universe, [0, 1]),
            AttrSet::from_indices(universe, [1, 2]),
            AttrSet::from_indices(universe, [0, 1, 2]),
        ] {
            assert_eq!(
                idx.cooccurrence_count(&probe),
                log.cooccurrence_count_scan(&probe),
                "cooccurrence {probe}"
            );
            assert_eq!(
                idx.complement_support(&probe),
                log.complement_support_scan(&probe),
                "complement {probe}"
            );
        }

        // The dense-only build agrees everywhere and holds no sparse rows.
        let dense = LogIndex::build_dense(&log);
        assert_eq!(dense.sparse_rows(), 0);
        let probe = AttrSet::from_indices(universe, [0, 1]);
        assert_eq!(
            dense.cooccurrence_count(&probe),
            idx.cooccurrence_count(&probe)
        );
    }

    #[test]
    fn hybrid_layout_saves_memory_on_skewed_logs() {
        // 4096 queries over 16 attrs, each query touching only attr 0 or
        // 1: the 14 empty rows and nothing else go sparse, so the hybrid
        // layout drops their 512 B bitmaps entirely.
        let universe = 16;
        let sets: Vec<AttrSet> = (0..4096)
            .map(|i| AttrSet::from_indices(universe, [i % 2]))
            .collect();
        let log = QueryLog::from_attr_sets(universe, sets);
        let idx = LogIndex::build(&log);
        let dense = LogIndex::build_dense(&log);
        assert_eq!(idx.sparse_rows(), 14);
        assert!(idx.row_bytes() < dense.row_bytes());
    }

    #[test]
    fn sparse_complement_clears_exact_ids() {
        // A sparse row complemented against a multi-word accumulator:
        // the tail word must keep its mask and no phantom ids appear.
        let universe = 2;
        let sets: Vec<AttrSet> = (0..130)
            .map(|i| {
                AttrSet::from_indices(
                    universe,
                    (0..universe).filter(|&a| a == 0 || (i == 3 || i == 128)),
                )
            })
            .collect();
        let log = QueryLog::from_attr_sets(universe, sets.clone());
        let idx = LogIndex::build(&log);
        assert!(idx.is_sparse(1), "2/130 density must go sparse");
        // Queries disjoint from {1}: all except ids 3 and 128.
        assert_eq!(idx.complement_support(&AttrSet::from_indices(2, [1])), 128);
        assert_eq!(
            idx.complement_support(&AttrSet::from_indices(2, [1])),
            log.complement_support_scan(&AttrSet::from_indices(2, [1]))
        );
    }

    #[test]
    fn intersect_entries_merge_and_gallop_agree() {
        // Reference: materialize both entry lists as bitmaps and AND.
        let entries = |step: usize, bits: u64| -> (Vec<u32>, Vec<u64>) {
            let ws: Vec<u32> = (0..400u32).step_by(step).collect();
            (ws.clone(), vec![bits; ws.len()])
        };
        let run = |a: &(Vec<u32>, Vec<u64>), b: &(Vec<u32>, Vec<u64>)| {
            let (mut w, mut m) = a.clone();
            intersect_entries(&mut w, &mut m, &b.0, &b.1);
            (w, m)
        };
        let a = entries(7, 0b1100);
        let b = entries(3, 0b0111);
        let expect_w: Vec<u32> = (0..400u32).step_by(21).collect();
        let (w, m) = run(&a, &b);
        assert_eq!(w, expect_w);
        assert!(m.iter().all(|&x| x == 0b0100));
        // Disjoint masks on a shared word drop the entry entirely.
        let (w, _) = run(&entries(3, 0b0011), &entries(3, 0b1100));
        assert!(w.is_empty());
        // Lopsided lengths trigger the galloping path.
        let short = (vec![0u32, 21, 42, 399], vec![!0u64; 4]);
        let long = entries(3, !0u64);
        let (w, m) = run(&short, &long);
        assert_eq!(w, vec![0, 21, 42, 399]);
        assert!(m.iter().all(|&x| x == !0u64));
        let (w, _) = run(&(Vec::new(), Vec::new()), &long);
        assert!(w.is_empty());
        let (w, _) = run(&long, &(Vec::new(), Vec::new()));
        assert!(w.is_empty());
    }

    #[test]
    fn blocked_kernels_cross_block_boundaries() {
        // > BLOCK_WORDS * 64 queries forces multiple accumulator blocks
        // through the dense k-operand AND.
        let s = BLOCK_WORDS * 64 + 70;
        let universe = 3;
        let sets: Vec<AttrSet> = (0..s)
            .map(|i| {
                AttrSet::from_indices(universe, (0..universe).filter(|&a| (i + a) % (a + 2) == 0))
            })
            .collect();
        let log = QueryLog::from_attr_sets(universe, sets);
        let idx = LogIndex::build(&log);
        for probe in [
            AttrSet::from_indices(universe, [0, 1]),
            AttrSet::from_indices(universe, [0, 1, 2]),
        ] {
            assert_eq!(
                idx.cooccurrence_count(&probe),
                log.cooccurrence_count_scan(&probe),
                "{probe}"
            );
        }
    }

    #[test]
    fn all_sparse_complement_takes_union_path_and_matches_scan() {
        // 640 ids; cards 9 and 7 are sparse under the strict 1/64 rule
        // (9·64 = 576 < 640), so a {0,1} operand set is all-sparse and
        // exercises the union fast path; attr 2 is dense and forces the
        // accumulator path when mixed in.
        let s = 640usize;
        let universe = 3;
        let sets: Vec<AttrSet> = (0..s)
            .map(|i| {
                let mut attrs = Vec::new();
                if i % 73 == 0 {
                    attrs.push(0);
                }
                if i % 91 == 0 {
                    attrs.push(1);
                }
                if i % 3 == 0 {
                    attrs.push(2);
                }
                AttrSet::from_indices(universe, attrs)
            })
            .collect();
        let log = QueryLog::from_attr_sets(universe, sets);
        let idx = LogIndex::build(&log);
        assert_eq!(idx.sparse_rows(), 2);
        for probe in [
            AttrSet::from_indices(universe, [0]),
            AttrSet::from_indices(universe, [0, 1]),
            AttrSet::from_indices(universe, [0, 1, 2]),
            AttrSet::from_indices(universe, [1, 2]),
        ] {
            assert_eq!(
                idx.complement_support(&probe),
                log.complement_support_scan(&probe),
                "{probe}"
            );
        }
    }
}
