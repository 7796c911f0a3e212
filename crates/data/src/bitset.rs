//! Fixed-universe bitsets over attribute identifiers.
//!
//! [`AttrSet`] is the workhorse representation of the whole workspace: a
//! tuple is the set of attributes whose value is 1, a conjunctive query is
//! the set of attributes it constrains, and an itemset is a set of items.
//! All of them are `AttrSet`s over a universe of `M` attributes fixed at
//! construction time.
//!
//! The representation is a small inline-friendly vector of `u64` words.
//! Every binary operation requires both operands to share the same universe
//! size; mixing universes is a programming error and panics (in debug and
//! release builds alike), because silently truncating or extending a set
//! produces wrong answers in the mining and solver layers.

use std::fmt;

use crate::AttrId;

const WORD_BITS: usize = 64;

#[inline]
fn word_count(nbits: usize) -> usize {
    nbits.div_ceil(WORD_BITS)
}

/// Storage: universes of up to 128 attributes (the overwhelmingly common
/// case — the paper's dataset has 32) live inline with no heap
/// allocation; wider universes spill to a `Vec`. Words beyond
/// `word_count(universe)` are always zero, so derived equality/order/hash
/// are consistent.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Words {
    Inline([u64; 2]),
    Heap(Vec<u64>),
}

/// A set of attributes drawn from a universe of fixed size.
///
/// The universe size (`universe`) is the number of attributes `M` of the
/// schema the set belongs to. Bits at positions `>= universe` are always
/// zero; every mutating operation maintains this invariant so that
/// [`AttrSet::count`] and [`AttrSet::complement`] are exact.
///
/// Sets over at most 128 attributes are stored inline (copying and
/// cloning never allocates), which matters because support counting in
/// the mining layer clones and extends sets in its innermost loop.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrSet {
    universe: u32,
    words: Words,
}

impl AttrSet {
    /// Creates an empty set over a universe of `universe` attributes.
    pub fn empty(universe: usize) -> Self {
        let words = if universe <= 128 {
            Words::Inline([0; 2])
        } else {
            Words::Heap(vec![0; word_count(universe)])
        };
        Self {
            universe: u32::try_from(universe).expect("attribute universe exceeds u32::MAX"),
            words,
        }
    }

    /// The live words as a slice: attribute `i` is bit `i % 64` of word
    /// `i / 64`.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        let n = word_count(self.universe as usize);
        match &self.words {
            Words::Inline(a) => &a[..n],
            Words::Heap(v) => &v[..n],
        }
    }

    /// The live words, mutably.
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let n = word_count(self.universe as usize);
        match &mut self.words {
            Words::Inline(a) => &mut a[..n],
            Words::Heap(v) => &mut v[..n],
        }
    }

    /// Creates the full set `{0, 1, ..., universe-1}`.
    pub fn full(universe: usize) -> Self {
        let mut set = Self::empty(universe);
        for w in set.words_mut() {
            *w = u64::MAX;
        }
        set.clear_tail();
        set
    }

    /// Builds a set from an iterator of attribute indices.
    ///
    /// # Panics
    /// Panics if any index is `>= universe`.
    pub fn from_indices<I>(universe: usize, indices: I) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let mut set = Self::empty(universe);
        for i in indices {
            set.insert(i);
        }
        set
    }

    /// Builds a set from a slice of Boolean values; `bits[i] == true` puts
    /// attribute `i` in the set. The universe size is `bits.len()`.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut set = Self::empty(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                set.insert(i);
            }
        }
        set
    }

    /// Parses a bit-vector string such as `"110100"`, where position 0 is
    /// the leftmost character (matching the layout of the paper's Fig 1).
    ///
    /// Returns `None` if the string contains characters other than `0`/`1`.
    pub fn from_bitstring(s: &str) -> Option<Self> {
        let mut set = Self::empty(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '1' => set.insert(i),
                '0' => {}
                _ => return None,
            }
        }
        Some(set)
    }

    /// The universe size `M` this set is drawn from.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe as usize
    }

    /// Number of attributes in the set (popcount).
    #[inline]
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set contains no attributes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Tests membership of attribute `i`.
    ///
    /// # Panics
    /// Panics if `i >= universe`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(
            i < self.universe(),
            "attribute {i} out of universe {}",
            self.universe
        );
        self.words()[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Tests membership of a typed attribute id.
    #[inline]
    pub fn contains_attr(&self, a: AttrId) -> bool {
        self.contains(a.index())
    }

    /// Inserts attribute `i`.
    ///
    /// # Panics
    /// Panics if `i >= universe`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(
            i < self.universe(),
            "attribute {i} out of universe {}",
            self.universe
        );
        self.words_mut()[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Removes attribute `i`.
    ///
    /// # Panics
    /// Panics if `i >= universe`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(
            i < self.universe(),
            "attribute {i} out of universe {}",
            self.universe
        );
        self.words_mut()[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Returns a copy with attribute `i` inserted.
    #[must_use]
    pub fn with(&self, i: usize) -> Self {
        let mut s = self.clone();
        s.insert(i);
        s
    }

    /// Returns a copy with attribute `i` removed.
    #[must_use]
    pub fn without(&self, i: usize) -> Self {
        let mut s = self.clone();
        s.remove(i);
        s
    }

    #[inline]
    fn check_same_universe(&self, other: &Self) {
        assert_eq!(
            self.universe, other.universe,
            "AttrSet universe mismatch: {} vs {}",
            self.universe, other.universe
        );
    }

    /// `self ⊆ other`.
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        self.check_same_universe(other);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(&a, &b)| a & !b == 0)
    }

    /// `self ⊇ other`.
    #[inline]
    pub fn is_superset(&self, other: &Self) -> bool {
        other.is_subset(self)
    }

    /// `self ∩ other = ∅`.
    #[inline]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.check_same_universe(other);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(&a, &b)| a & b == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Self) {
        self.check_same_universe(other);
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &Self) {
        self.check_same_universe(other);
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// In-place set difference (`self \ other`).
    pub fn difference_with(&mut self, other: &Self) {
        self.check_same_universe(other);
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// `self ∪ other`.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// `self ∩ other`.
    #[must_use]
    pub fn intersection(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &Self) -> Self {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// `|self ∩ other|` without allocating.
    #[inline]
    pub fn intersection_count(&self, other: &Self) -> usize {
        self.check_same_universe(other);
        self.words()
            .iter()
            .zip(other.words())
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// The complement `~self` with respect to the universe.
    ///
    /// This is the operation the paper uses to map a sparse query log `Q`
    /// to its dense complement `~Q` (§IV.C).
    #[must_use]
    pub fn complement(&self) -> Self {
        let mut s = self.clone();
        for w in s.words_mut() {
            *w = !*w;
        }
        s.clear_tail();
        s
    }

    /// Zeroes bits at positions `>= universe` in the last word.
    fn clear_tail(&mut self) {
        let used = self.universe as usize % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// Iterates over the attribute indices in the set, in increasing order.
    pub fn iter(&self) -> Ones<'_> {
        Ones {
            set: self,
            word_idx: 0,
            current: self.words().first().copied().unwrap_or(0),
        }
    }

    /// The set over `universe` attributes whose live words `fill` writes
    /// into zeroed storage. `fill` must leave bits past the universe
    /// clear.
    pub(crate) fn from_words_with(universe: usize, fill: impl FnOnce(&mut [u64])) -> Self {
        let mut set = Self::empty(universe);
        fill(set.words_mut());
        set
    }

    /// Collects the member indices into a vector (ascending).
    pub fn to_indices(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Renders as a bit-vector string, position 0 leftmost (Fig 1 layout).
    pub fn to_bitstring(&self) -> String {
        (0..self.universe())
            .map(|i| if self.contains(i) { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AttrSet({})", self.to_bitstring())
    }
}

impl fmt::Display for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<AttrId> for AttrSet {
    /// Collects typed attribute ids into a set; the universe is sized to
    /// the largest id + 1. Prefer [`AttrSet::from_indices`] when the schema
    /// width is known, so that universes line up.
    fn from_iter<T: IntoIterator<Item = AttrId>>(iter: T) -> Self {
        let ids: Vec<usize> = iter.into_iter().map(|a| a.index()).collect();
        let universe = ids.iter().copied().max().map_or(0, |m| m + 1);
        Self::from_indices(universe, ids)
    }
}

/// Iterator over set members produced by [`AttrSet::iter`].
pub struct Ones<'a> {
    set: &'a AttrSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            let words = self.set.words();
            if self.word_idx >= words.len() {
                return None;
            }
            self.current = words[self.word_idx];
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let words = self.set.words();
        let remaining = self.current.count_ones() as usize
            + words[(self.word_idx + 1).min(words.len())..]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = AttrSet::empty(70);
        assert_eq!(e.count(), 0);
        assert!(e.is_empty());
        let f = AttrSet::full(70);
        assert_eq!(f.count(), 70);
        assert_eq!(f.complement(), e);
        assert_eq!(e.complement(), f);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = AttrSet::empty(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.to_indices(), vec![0, 129]);
    }

    #[test]
    fn subset_disjoint() {
        let a = AttrSet::from_indices(10, [1, 3, 5]);
        let b = AttrSet::from_indices(10, [1, 3, 5, 7]);
        let c = AttrSet::from_indices(10, [0, 2]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(b.is_superset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn algebra() {
        let a = AttrSet::from_indices(8, [0, 1, 2]);
        let b = AttrSet::from_indices(8, [2, 3]);
        assert_eq!(a.union(&b).to_indices(), vec![0, 1, 2, 3]);
        assert_eq!(a.intersection(&b).to_indices(), vec![2]);
        assert_eq!(a.difference(&b).to_indices(), vec![0, 1]);
        assert_eq!(a.intersection_count(&b), 1);
    }

    #[test]
    fn bitstring_roundtrip() {
        let s = AttrSet::from_bitstring("110100").unwrap();
        assert_eq!(s.to_indices(), vec![0, 1, 3]);
        assert_eq!(s.to_bitstring(), "110100");
        assert!(AttrSet::from_bitstring("1102").is_none());
    }

    #[test]
    fn complement_respects_universe() {
        // universe not a multiple of 64: tail bits must stay clear.
        let s = AttrSet::from_indices(66, [0, 65]);
        let c = s.complement();
        assert_eq!(c.count(), 64);
        assert!(!c.contains(0) && !c.contains(65));
        assert!(c.contains(1) && c.contains(64));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let a = AttrSet::empty(5);
        let b = AttrSet::empty(6);
        let _ = a.is_subset(&b);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_range_insert_panics() {
        let mut a = AttrSet::empty(5);
        a.insert(5);
    }

    #[test]
    fn display_and_debug() {
        let s = AttrSet::from_indices(6, [1, 4]);
        assert_eq!(format!("{s}"), "{1, 4}");
        assert_eq!(format!("{s:?}"), "AttrSet(010010)");
    }

    #[test]
    fn from_bools() {
        let s = AttrSet::from_bools(&[true, false, true]);
        assert_eq!(s.universe(), 3);
        assert_eq!(s.to_indices(), vec![0, 2]);
    }

    #[test]
    fn with_without() {
        let s = AttrSet::from_indices(4, [0]);
        assert_eq!(s.with(2).to_indices(), vec![0, 2]);
        assert_eq!(s.without(0).to_indices(), Vec::<usize>::new());
        // originals untouched
        assert_eq!(s.to_indices(), vec![0]);
    }

    #[test]
    fn iter_size_hint() {
        let s = AttrSet::from_indices(200, [0, 63, 64, 127, 199]);
        let it = s.iter();
        assert_eq!(it.size_hint(), (5, Some(5)));
        assert_eq!(s.iter().count(), 5);
    }
}
