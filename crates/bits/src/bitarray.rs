//! The m-bit array `B` with byte-aligned window reads.

use crate::alloc::AllocError;

/// A fixed-length bit array backed by `u64` words.
///
/// Bit `i` lives in word `i / 64` at in-word position `i % 64` (LSB-first),
/// which mirrors the little-endian byte-addressable layout the paper's
/// one-memory-access argument relies on: any 64 consecutive bits starting at a
/// byte boundary are one load, and any window of `≤ 57` bits starting at an
/// arbitrary *bit* is contained in such a load.
#[derive(PartialEq, Eq)]
pub struct BitArray {
    words: Box<[u64]>,
    len_bits: usize,
}

impl Clone for BitArray {
    /// Copies into storage from [`crate::alloc::zeroed_words`], so a clone
    /// is huge-page-advised like the original.
    ///
    /// # Panics
    /// Panics if the copy cannot be allocated.
    fn clone(&self) -> Self {
        let mut words = crate::alloc::zeroed_words(self.words.len()).expect("clone BitArray");
        words.copy_from_slice(&self.words);
        BitArray {
            words,
            len_bits: self.len_bits,
        }
    }
}

impl std::fmt::Debug for BitArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitArray")
            .field("len_bits", &self.len_bits)
            .field("ones", &self.count_ones())
            .finish()
    }
}

impl BitArray {
    /// Creates a zeroed array of `len_bits` bits.
    ///
    /// # Panics
    /// Panics if the array cannot be allocated; [`Self::try_new`] reports
    /// that as an error instead.
    pub fn new(len_bits: usize) -> Self {
        Self::try_new(len_bits).expect("allocate BitArray")
    }

    /// Creates a zeroed array of `len_bits` bits, or reports why its
    /// storage cannot be allocated (see [`crate::alloc`]).
    pub fn try_new(len_bits: usize) -> Result<Self, AllocError> {
        Ok(BitArray {
            words: crate::alloc::zeroed_words(len_bits.div_ceil(64))?,
            len_bits,
        })
    }

    /// Length in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len_bits
    }

    /// True if the array has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len_bits,
            "bit index {i} out of range {}",
            self.len_bits
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to 1.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len_bits,
            "bit index {i} out of range {}",
            self.len_bits
        );
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i` to 0.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(
            i < self.len_bits,
            "bit index {i} out of range {}",
            self.len_bits
        );
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Reads a window of `width ≤ 64` bits starting at bit `start`, returned
    /// in the low bits of the result (bit `start` at position 0).
    ///
    /// This is the operation the paper models as **one memory access** when
    /// `width ≤ w̄ ≤ w − 7`: the window spans at most `⌈(7 + width)/8⌉ ≤ 8`
    /// bytes, i.e. one unaligned 64-bit load. Bits past `len()` read as 0.
    ///
    /// # Panics
    /// Panics if `width > 64` or `start >= len()`.
    #[inline]
    pub fn read_window(&self, start: usize, width: usize) -> u64 {
        debug_assert!(width <= 64, "window width {width} > 64");
        debug_assert!(
            start < self.len_bits,
            "window start {start} out of range {}",
            self.len_bits
        );
        if width == 0 {
            return 0;
        }
        let off = start % 64;
        let lo = self.words[start / 64] >> off;
        // `hi` is the word holding the window's last bit: the next word
        // when the window straddles, else the first word again, so a probe
        // never touches a word (or cache line) outside its window. Its
        // bits land at `64 − off` and up: past a non-straddling window's
        // `width`, where the mask below clears them, and onto the window's
        // tail when it straddles. `(hi << 1) << (63 − off)` is that shift
        // without the invalid 64-bit shift at off == 0. The straddle test
        // itself is data-dependent and would mispredict in filter probes,
        // so nothing branches on it.
        let hi = self
            .words
            .get((start + width - 1) / 64)
            .copied()
            .unwrap_or(0);
        let value = lo | ((hi << 1) << (63 - off));
        if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        }
    }

    /// Tests bits `start` and `start + offset` in one conceptual access
    /// (the ShBF_M probe). Returns `(bit_at_start, bit_at_start_plus_offset)`.
    ///
    /// # Panics
    /// Panics if `start + offset >= len()` or `offset > 63`.
    #[inline]
    pub fn probe_pair(&self, start: usize, offset: usize) -> (bool, bool) {
        debug_assert!(offset < 64, "pair offset {offset} must fit one window");
        let win = self.read_window(start, offset + 1);
        (win & 1 == 1, (win >> offset) & 1 == 1)
    }

    /// True iff **both** bits of a pair are set — [`Self::probe_pair`]
    /// collapsed to the single compare `win & mask == mask` the query hot
    /// path wants (one branch instead of two extracted booleans).
    ///
    /// # Panics
    /// Panics if `start + offset >= len()` or `offset > 63`.
    #[inline]
    pub fn pair_all_set(&self, start: usize, offset: usize) -> bool {
        debug_assert!(offset < 64, "pair offset {offset} must fit one window");
        let mask = 1u64 | (1u64 << offset);
        self.read_window(start, offset + 1) & mask == mask
    }

    /// Issues a cache prefetch hint for the word holding bit `bit`.
    /// Out-of-range bits are ignored (a hint, never a panic).
    #[inline]
    pub fn prefetch(&self, bit: usize) {
        if let Some(word) = self.words.get(bit / 64) {
            crate::prefetch::prefetch_word(word);
        }
    }

    /// Prefetches everything [`Self::pair_all_set`]`(start, offset)` will
    /// load: the word holding `start` and the word holding
    /// `start + offset`, which lies in another 64-byte cache line for about
    /// one pair in eight. The second hint is issued even when both words
    /// share a line: a redundant hint costs less than the data-dependent
    /// branch that would skip it. Out-of-range bits are ignored (a hint,
    /// never a panic).
    #[inline]
    pub fn prefetch_pair(&self, start: usize, offset: usize) {
        if let Some(head) = self.words.get(start / 64) {
            crate::prefetch::prefetch_word(head);
        }
        if let Some(tail) = self.words.get((start + offset) / 64) {
            crate::prefetch::prefetch_word(tail);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits (`count_ones / len`).
    pub fn fill_ratio(&self) -> f64 {
        if self.len_bits == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len_bits as f64
        }
    }

    /// Resets every bit to 0.
    pub fn reset(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// The backing words (for serialization).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds an array from its backing words and bit length.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `len_bits.div_ceil(64)` long or if
    /// bits beyond `len_bits` are set.
    pub fn from_words(words: Vec<u64>, len_bits: usize) -> Self {
        assert_eq!(words.len(), len_bits.div_ceil(64), "word count mismatch");
        if !len_bits.is_multiple_of(64) {
            if let Some(last) = words.last() {
                let used = len_bits % 64;
                assert_eq!(last >> used, 0, "set bits beyond len_bits");
            }
        }
        BitArray {
            words: words.into_boxed_slice(),
            len_bits,
        }
    }

    /// Memory footprint of the backing store in bytes.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = BitArray::new(200);
        assert!(!b.get(0));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(199);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(199));
        assert_eq!(b.count_ones(), 4);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitArray::new(10).get(10);
    }

    #[test]
    fn window_within_one_word() {
        let mut b = BitArray::new(128);
        b.set(3);
        b.set(5);
        // window starting at 3, width 4 => bits 3,4,5,6 => 0b0101
        assert_eq!(b.read_window(3, 4), 0b0101);
    }

    #[test]
    fn window_across_word_boundary() {
        let mut b = BitArray::new(192);
        b.set(62);
        b.set(64);
        b.set(70);
        // start 60 width 12 covers bits 60..72: set bits at rel 2, 4, 10
        assert_eq!(b.read_window(60, 12), (1 << 2) | (1 << 4) | (1 << 10));
    }

    #[test]
    fn window_full_64_at_boundary() {
        let mut b = BitArray::new(256);
        for i in 64..128 {
            if i % 3 == 0 {
                b.set(i);
            }
        }
        let w = b.read_window(64, 64);
        assert_eq!(w, b.as_words()[1]);
    }

    #[test]
    fn window_past_end_reads_zero() {
        let mut b = BitArray::new(70);
        b.set(69);
        // start 68, width 10: only rel-1 is set; tail bits (past 70) are 0.
        assert_eq!(b.read_window(68, 10), 0b10);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every window of every width, from every start — the last word's
        /// included — equals a bit-by-bit gather, bits past `len()` read 0.
        #[test]
        fn read_window_equals_bitwise_reference(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..5),
            trim in 0usize..64,
        ) {
            let len = (words.len() * 64 - trim).max(1);
            let mut b = BitArray::new(len);
            for i in 0..len {
                if (words[i / 64] >> (i % 64)) & 1 == 1 {
                    b.set(i);
                }
            }
            for start in 0..len {
                for width in 0..=64 {
                    let reference = (0..width)
                        .filter(|&j| start + j < len && b.get(start + j))
                        .fold(0u64, |acc, j| acc | 1 << j);
                    proptest::prop_assert_eq!(
                        b.read_window(start, width),
                        reference,
                        "len {} start {} width {}", len, start, width
                    );
                }
            }
        }
    }

    #[test]
    fn prefetch_pair_never_panics() {
        let b = BitArray::new(1000);
        for start in [0, 63, 500, 511, 999, 1_000_000] {
            b.prefetch_pair(start, 56);
        }
    }

    #[test]
    fn probe_pair_matches_individual_gets() {
        let mut b = BitArray::new(300);
        b.set(100);
        b.set(157);
        assert_eq!(b.probe_pair(100, 57), (true, true));
        assert_eq!(b.probe_pair(100, 56), (true, false));
        assert_eq!(b.probe_pair(99, 1), (false, true));
    }

    #[test]
    fn pair_all_set_equals_probe_pair_conjunction() {
        let mut b = BitArray::new(512);
        for bit in [3usize, 60, 64, 100, 157, 200, 263] {
            b.set(bit);
        }
        for start in 0..420 {
            for offset in 1..57 {
                let (b0, b1) = b.probe_pair(start, offset);
                assert_eq!(
                    b.pair_all_set(start, offset),
                    b0 && b1,
                    "start {start} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn prefetch_never_panics() {
        let b = BitArray::new(100);
        b.prefetch(0);
        b.prefetch(99);
        b.prefetch(1_000_000); // out of range: silently ignored
    }

    #[test]
    fn fill_ratio_and_reset() {
        let mut b = BitArray::new(100);
        for i in 0..50 {
            b.set(i);
        }
        assert!((b.fill_ratio() - 0.5).abs() < 1e-9);
        b.reset();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn from_words_roundtrip() {
        let mut b = BitArray::new(130);
        b.set(1);
        b.set(129);
        let rebuilt = BitArray::from_words(b.as_words().to_vec(), 130);
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn try_new_reports_impossible_sizes() {
        assert!(BitArray::try_new(usize::MAX).is_err());
        let b = BitArray::try_new(0).unwrap();
        assert!(b.is_empty() && b.as_words().is_empty());
    }

    #[test]
    fn clone_is_equal_and_independent() {
        let mut b = BitArray::new(300);
        b.set(7);
        b.set(299);
        let mut c = b.clone();
        assert_eq!(c, b);
        c.set(8);
        assert!(!b.get(8));
    }

    #[test]
    #[should_panic(expected = "beyond len_bits")]
    fn from_words_rejects_dirty_tail() {
        BitArray::from_words(vec![0, 0b100], 65);
    }
}
