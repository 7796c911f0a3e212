//! Attribute-universe projection: the mapping between a full schema and
//! the compact universe of one tuple's attributes.
//!
//! Solving SOC-CB-QL for a tuple `t` never needs the full `M`-attribute
//! universe: a compression retains a subset of `t`, and a query can only
//! be satisfied if it is contained in `t`. Restricting the log to those
//! queries *and* renumbering attributes down to `t`'s 1-positions (cf.
//! Tatti, *Safe Projections of Binary Data Sets*) shrinks every
//! downstream structure at once — ILP models, MFI transaction width, and
//! the brute-force search space. [`AttrMapping`] is the renumbering;
//! [`crate::QueryLog::project_onto`] applies it to a log.

use crate::{AttrSet, Tuple};

/// A bijection between the subsets of one tuple's attributes in the
/// original `M`-attribute universe and all subsets of a compact
/// `|t|`-attribute universe.
///
/// Compact index `c` corresponds to the original index `kept[c]`, with
/// `kept` ascending — so the mapping preserves attribute order, and
/// deterministic tie-breaking (e.g. in the greedies) agrees between the
/// full and projected instances wherever frequencies agree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrMapping {
    original_universe: usize,
    /// Compact index → original index, strictly ascending.
    kept: Vec<usize>,
    /// Per original word: the compressor onto that word's kept bits and
    /// the compact bit offset where they land.
    words: Vec<(Compress, usize)>,
}

impl AttrMapping {
    /// The mapping that keeps exactly the attributes of `t` (in order).
    pub fn for_tuple(t: &Tuple) -> Self {
        Self::keeping(t.universe(), t.attrs().iter())
    }

    /// The mapping that keeps the given ascending original indices.
    ///
    /// # Panics
    /// Panics if an index repeats, decreases, or exceeds the universe.
    pub fn keeping<I: IntoIterator<Item = usize>>(original_universe: usize, indices: I) -> Self {
        let mut kept = Vec::new();
        let mut kept_set = AttrSet::empty(original_universe);
        for i in indices {
            assert!(i < original_universe, "kept index {i} out of universe");
            assert!(
                kept.last().is_none_or(|&prev| prev < i),
                "kept indices must be strictly ascending"
            );
            kept_set.insert(i);
            kept.push(i);
        }
        let mut offset = 0;
        let words = kept_set
            .words()
            .iter()
            .map(|&mask| {
                let word = (Compress::new(mask), offset);
                offset += mask.count_ones() as usize;
                word
            })
            .collect();
        Self {
            original_universe,
            kept,
            words,
        }
    }

    /// Width `M` of the original universe.
    #[inline]
    pub fn original_universe(&self) -> usize {
        self.original_universe
    }

    /// Width of the compact universe (the number of kept attributes).
    #[inline]
    pub fn compact_universe(&self) -> usize {
        self.kept.len()
    }

    /// The original index of compact attribute `c`.
    ///
    /// # Panics
    /// Panics if `c` is out of the compact universe.
    #[inline]
    pub fn original_index(&self, c: usize) -> usize {
        self.kept[c]
    }

    /// The compact index of original attribute `i`, or `None` if dropped.
    #[inline]
    pub fn compact_index(&self, i: usize) -> Option<usize> {
        self.kept.binary_search(&i).ok()
    }

    /// Maps a set over the original universe down to the compact one:
    /// each original word is compressed onto its kept bits (a software
    /// `pext`, branch-free) and shifted into place, so the cost does not
    /// depend on how many attributes the set holds. It runs once per
    /// query a projection keeps.
    ///
    /// # Panics
    /// Panics if the set contains a dropped attribute (projection is only
    /// defined on subsets of the kept attributes) or its universe differs
    /// from the original.
    pub fn to_compact(&self, original: &AttrSet) -> AttrSet {
        assert_eq!(
            original.universe(),
            self.original_universe,
            "set universe does not match the mapping's original universe"
        );
        AttrSet::from_words_with(self.kept.len(), |out| {
            for (&w, (compress, offset)) in original.words().iter().zip(&self.words) {
                assert!(
                    w & !compress.mask == 0,
                    "set contains an attribute the projection dropped"
                );
                let c = compress.apply(w);
                let (at, shift) = (offset / 64, offset % 64);
                if c != 0 {
                    out[at] |= c << shift;
                    if shift != 0 && c >> (64 - shift) != 0 {
                        out[at + 1] |= c >> (64 - shift);
                    }
                }
            }
        })
    }

    /// Maps a set over the compact universe back to the original one.
    ///
    /// # Panics
    /// Panics if the set's universe differs from the compact universe.
    pub fn to_original(&self, compact: &AttrSet) -> AttrSet {
        assert_eq!(
            compact.universe(),
            self.kept.len(),
            "set universe does not match the mapping's compact universe"
        );
        AttrSet::from_indices(self.original_universe, compact.iter().map(|c| self.kept[c]))
    }
}

/// Compression of one word onto the bits of a fixed mask: the bit at the
/// mask's `k`-th set position moves to bit `k` (a software `pext`). The
/// mask-only half of Hacker's Delight's `compress` (§7-4) is precomputed,
/// so applying it costs six shift-and-mask steps, with no branches.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Compress {
    mask: u64,
    /// Bits that move right by `1 << i` in step `i`.
    moves: [u64; 6],
}

impl Compress {
    fn new(mask: u64) -> Self {
        let mut m = mask;
        let mut mk = !m << 1; // zeros to the right of each bit, counted below
        let mut moves = [0u64; 6];
        for (i, mv_out) in moves.iter_mut().enumerate() {
            // Prefix parity of `mk`: the bits whose zero count has bit i set.
            let mut mp = mk ^ (mk << 1);
            for shift in [2, 4, 8, 16, 32] {
                mp ^= mp << shift;
            }
            let mv = mp & m;
            *mv_out = mv;
            m = (m ^ mv) | (mv >> (1 << i));
            mk &= !mp;
        }
        Self { mask, moves }
    }

    #[inline]
    fn apply(&self, x: u64) -> u64 {
        let mut x = x & self.mask;
        for (i, &mv) in self.moves.iter().enumerate() {
            let t = x & mv;
            x = (x ^ t) | (t >> (1 << i));
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_over_tuple_attrs() {
        let t = Tuple::from_bitstring("1011010").unwrap(); // {0, 2, 3, 5}
        let map = AttrMapping::for_tuple(&t);
        assert_eq!(map.original_universe(), 7);
        assert_eq!(map.compact_universe(), 4);
        assert_eq!(map.original_index(2), 3);
        assert_eq!(map.compact_index(5), Some(3));
        assert_eq!(map.compact_index(1), None);

        let sub = AttrSet::from_indices(7, [0, 3, 5]);
        let compact = map.to_compact(&sub);
        assert_eq!(compact.to_indices(), vec![0, 2, 3]);
        assert_eq!(map.to_original(&compact), sub);
    }

    #[test]
    fn roundtrip_is_identity_on_all_subsets() {
        let t = Tuple::from_bitstring("0110101").unwrap();
        let map = AttrMapping::for_tuple(&t);
        let kept: Vec<usize> = t.attrs().to_indices();
        for mask in 0u32..(1 << kept.len()) {
            let original = AttrSet::from_indices(
                7,
                kept.iter()
                    .enumerate()
                    .filter(|&(c, _)| mask >> c & 1 == 1)
                    .map(|(_, &i)| i),
            );
            let compact = map.to_compact(&original);
            assert_eq!(compact.count(), original.count());
            assert_eq!(map.to_original(&compact), original);
        }
    }

    #[test]
    fn empty_tuple_maps_to_zero_universe() {
        let t = Tuple::from_bitstring("0000").unwrap();
        let map = AttrMapping::for_tuple(&t);
        assert_eq!(map.compact_universe(), 0);
        let empty = map.to_compact(&AttrSet::empty(4));
        assert_eq!(empty.universe(), 0);
        assert_eq!(map.to_original(&empty), AttrSet::empty(4));
    }

    #[test]
    #[should_panic(expected = "projection dropped")]
    fn dropped_attribute_panics() {
        let t = Tuple::from_bitstring("1100").unwrap();
        let map = AttrMapping::for_tuple(&t);
        let _ = map.to_compact(&AttrSet::from_indices(4, [0, 3]));
    }

    #[test]
    fn compress_matches_bitwise_extraction() {
        let mut rng = soc_rng::StdRng::seed_from_u64(0xC0);
        let masks = [
            0u64,
            !0,
            1,
            1 << 63,
            0x5555_5555_5555_5555,
            0xF0F0_0000_FFFF_0001,
        ];
        let random: Vec<u64> = (0..200)
            .map(|_| rng.random::<u64>() & rng.random::<u64>())
            .collect();
        for mask in masks.into_iter().chain(random) {
            let compress = Compress::new(mask);
            for x in [0u64, !0, rng.random(), rng.random::<u64>() & mask] {
                let mut want = 0u64;
                let mut k = 0;
                for j in 0..64 {
                    if mask >> j & 1 == 1 {
                        want |= (x >> j & 1) << k;
                        k += 1;
                    }
                }
                assert_eq!(compress.apply(x), want, "mask {mask:#x} x {x:#x}");
            }
        }
    }

    #[test]
    fn wide_universes_straddle_word_boundaries() {
        // Kept attributes across three original words, with compact
        // offsets that split a compressed word over two output words.
        let kept: Vec<usize> = (0..200).filter(|i| i % 3 != 1).collect();
        let map = AttrMapping::keeping(200, kept.iter().copied());
        for picked in [vec![0usize, 63, 65, 126, 128, 198], kept.clone(), vec![]] {
            let original = AttrSet::from_indices(200, picked.iter().copied());
            let compact = map.to_compact(&original);
            let want: Vec<usize> = picked
                .iter()
                .map(|&i| map.compact_index(i).unwrap())
                .collect();
            assert_eq!(compact.to_indices(), want);
            assert_eq!(map.to_original(&compact), original);
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unordered_kept_panics() {
        let _ = AttrMapping::keeping(5, [2, 1]);
    }
}
