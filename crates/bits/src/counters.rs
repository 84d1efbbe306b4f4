//! Packed z-bit counter arrays — the array `C` of every counting filter.
//!
//! The paper notes that "in most applications, 4 bits for a counter are
//! enough" (§3.3) and uses 6-bit counters for Spectral BF / CM sketch in the
//! evaluation (§6.4.1). Counters are packed so that `⌊(w−7)/z⌋`-slot windows
//! remain single-access (the CShBF_M update bound in §3.3).

use crate::alloc::AllocError;
use crate::bitarray::BitArray;

/// A fixed-length array of `z`-bit saturating counters packed into `u64`s.
///
/// Counter widths from 1 to 32 bits are supported. Increments saturate at
/// `2^z − 1` (the classic CBF overflow policy: the counter sticks at max and
/// can no longer be decremented reliably; [`CounterArray::saturations`]
/// reports how often that happened so callers can size `z` properly).
#[derive(PartialEq, Eq)]
pub struct CounterArray {
    words: Box<[u64]>,
    len: usize,
    width: u32,
    max: u64,
    saturations: u64,
}

impl std::fmt::Debug for CounterArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterArray")
            .field("len", &self.len)
            .field("width", &self.width)
            .field("saturations", &self.saturations)
            .finish()
    }
}

impl Clone for CounterArray {
    /// Copies into storage from [`crate::alloc::zeroed_words`], so a clone
    /// is huge-page-advised like the original.
    ///
    /// # Panics
    /// Panics if the copy cannot be allocated.
    fn clone(&self) -> Self {
        let mut words = crate::alloc::zeroed_words(self.words.len()).expect("clone CounterArray");
        words.copy_from_slice(&self.words);
        CounterArray { words, ..*self }
    }
}

impl CounterArray {
    /// Creates `len` zeroed counters of `width` bits each.
    ///
    /// # Panics
    /// Panics if `width` is 0 or greater than 32, or if the array cannot
    /// be allocated; [`Self::try_new`] reports the latter as an error.
    pub fn new(len: usize, width: u32) -> Self {
        Self::try_new(len, width).expect("allocate CounterArray")
    }

    /// Creates `len` zeroed counters of `width` bits each, or reports why
    /// their storage cannot be allocated (see [`crate::alloc`]).
    ///
    /// # Panics
    /// Panics if `width` is 0 or greater than 32.
    pub fn try_new(len: usize, width: u32) -> Result<Self, AllocError> {
        assert!(
            (1..=32).contains(&width),
            "counter width {width} not in 1..=32"
        );
        let total_bits = len
            .checked_mul(width as usize)
            .ok_or(AllocError::OVERFLOW)?;
        Ok(CounterArray {
            words: crate::alloc::zeroed_words(total_bits.div_ceil(64))?,
            len,
            width,
            max: (1u64 << width) - 1,
            saturations: 0,
        })
    }

    /// Number of counters.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no counters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counter width in bits (`z`).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Maximum representable value (`2^z − 1`).
    #[inline]
    pub fn max_value(&self) -> u64 {
        self.max
    }

    /// Issues a cache prefetch hint for the word holding counter `idx`.
    /// Out-of-range indexes are ignored (a hint, never a panic).
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        if let Some(word) = self.words.get(idx * self.width as usize / 64) {
            crate::prefetch::prefetch_word(word);
        }
    }

    /// How many increments have saturated so far.
    #[inline]
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Reads counter `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "counter index {i} out of range {}", self.len);
        let bit = i * self.width as usize;
        let word = bit / 64;
        let off = bit % 64;
        let lo = self.words[word] >> off;
        let raw = if off + self.width as usize > 64 {
            lo | (self.words[word + 1] << (64 - off))
        } else {
            lo
        };
        raw & self.max
    }

    /// Writes counter `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len()` or `value > max_value()`.
    pub fn set(&mut self, i: usize, value: u64) {
        assert!(i < self.len, "counter index {i} out of range {}", self.len);
        assert!(
            value <= self.max,
            "value {value} exceeds {}-bit counter",
            self.width
        );
        let bit = i * self.width as usize;
        let word = bit / 64;
        let off = bit % 64;
        self.words[word] &= !(self.max << off);
        self.words[word] |= value << off;
        if off + self.width as usize > 64 {
            let spill = 64 - off;
            self.words[word + 1] &= !(self.max >> spill);
            self.words[word + 1] |= value >> spill;
        }
    }

    /// Increments counter `i`, saturating at the maximum. Returns the new
    /// value.
    #[inline]
    pub fn inc(&mut self, i: usize) -> u64 {
        let v = self.get(i);
        if v == self.max {
            self.saturations += 1;
            v
        } else {
            self.set(i, v + 1);
            v + 1
        }
    }

    /// Decrements counter `i`. Saturated counters stick at the maximum
    /// (standard CBF policy — decrementing them could create false
    /// negatives). Returns the new value, or `None` if the counter was 0.
    #[inline]
    pub fn dec(&mut self, i: usize) -> Option<u64> {
        let v = self.get(i);
        if v == 0 {
            None
        } else if v == self.max && self.saturations > 0 {
            // Sticky: we can no longer prove the true count is max, so leave it.
            Some(v)
        } else {
            self.set(i, v - 1);
            Some(v - 1)
        }
    }

    /// Decrements counter `i` unconditionally (used by structures that track
    /// exact counts elsewhere and know the decrement is safe). Returns the
    /// new value, or `None` if the counter was 0.
    #[inline]
    pub fn dec_exact(&mut self, i: usize) -> Option<u64> {
        let v = self.get(i);
        if v == 0 {
            None
        } else {
            self.set(i, v - 1);
            Some(v - 1)
        }
    }

    /// Number of counters that are nonzero.
    pub fn count_nonzero(&self) -> usize {
        (0..self.len).filter(|&i| self.get(i) != 0).count()
    }

    /// The bit mirror of the counters: `len()` bits, bit `i` set iff
    /// counter `i` is nonzero. This is the query-side array every counting
    /// filter rebuilds after decoding its counters.
    pub fn nonzero_bits(&self) -> Result<BitArray, AllocError> {
        let mut bits = BitArray::try_new(self.len)?;
        let width = self.width as usize;
        let mut i = 0;
        while i < self.len {
            let word = i * width / 64;
            if self.words[word] == 0 {
                // Every counter wholly inside this zero word is 0. Jump to
                // the one holding the word's last bit: it may spill into
                // the next word, so it is read in full below.
                i = (word * 64 + 63) / width;
                if i >= self.len {
                    break;
                }
            }
            if self.get(i) != 0 {
                bits.set(i);
            }
            i += 1;
        }
        Ok(bits)
    }

    /// Resets all counters to zero and clears the saturation tally.
    pub fn reset(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.saturations = 0;
    }

    /// The backing words (for serialization).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds from backing words.
    ///
    /// # Panics
    /// Panics if `words` has the wrong length for `(len, width)`.
    pub fn from_words(words: Vec<u64>, len: usize, width: u32) -> Self {
        assert!((1..=32).contains(&width));
        assert_eq!(words.len(), (len * width as usize).div_ceil(64));
        CounterArray {
            words: words.into_boxed_slice(),
            len,
            width,
            max: (1u64 << width) - 1,
            saturations: 0,
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
    fn get_set_various_widths() {
        for width in [1u32, 2, 3, 4, 6, 8, 13, 16, 31, 32] {
            let mut c = CounterArray::new(100, width);
            let max = c.max_value();
            c.set(0, max);
            c.set(1, max / 2);
            c.set(99, 1.min(max));
            assert_eq!(c.get(0), max, "width {width}");
            assert_eq!(c.get(1), max / 2, "width {width}");
            assert_eq!(c.get(99), 1.min(max), "width {width}");
            assert_eq!(c.get(50), 0, "width {width}");
        }
    }

    #[test]
    fn six_bit_counters_cross_word_boundaries() {
        // 6-bit counters: counter 10 occupies bits 60..66 — straddles words.
        let mut c = CounterArray::new(32, 6);
        c.set(10, 0b101_101);
        assert_eq!(c.get(10), 0b101_101);
        // Neighbors unaffected.
        assert_eq!(c.get(9), 0);
        assert_eq!(c.get(11), 0);
        c.set(9, 63);
        c.set(11, 63);
        assert_eq!(c.get(10), 0b101_101);
    }

    #[test]
    fn inc_dec_roundtrip() {
        let mut c = CounterArray::new(8, 4);
        for _ in 0..5 {
            c.inc(3);
        }
        assert_eq!(c.get(3), 5);
        for _ in 0..5 {
            assert!(c.dec(3).is_some());
        }
        assert_eq!(c.get(3), 0);
        assert_eq!(c.dec(3), None);
    }

    #[test]
    fn saturation_sticks() {
        let mut c = CounterArray::new(2, 2); // max 3
        for _ in 0..10 {
            c.inc(0);
        }
        assert_eq!(c.get(0), 3);
        assert_eq!(c.saturations(), 7);
        // Sticky decrement: saturated counter does not move.
        assert_eq!(c.dec(0), Some(3));
        // Exact decrement bypasses stickiness.
        assert_eq!(c.dec_exact(0), Some(2));
    }

    #[test]
    fn nonzero_count_and_reset() {
        let mut c = CounterArray::new(10, 4);
        c.inc(1);
        c.inc(1);
        c.inc(7);
        assert_eq!(c.count_nonzero(), 2);
        c.reset();
        assert_eq!(c.count_nonzero(), 0);
        assert_eq!(c.saturations(), 0);
    }

    #[test]
    fn from_words_roundtrip() {
        let mut c = CounterArray::new(21, 6);
        c.set(20, 33);
        c.set(0, 1);
        let r = CounterArray::from_words(c.as_words().to_vec(), 21, 6);
        assert_eq!(r.get(20), 33);
        assert_eq!(r.get(0), 1);
    }

    #[test]
    fn nonzero_bits_mirrors_every_width() {
        for width in [1u32, 3, 4, 6, 7, 8, 13, 32] {
            let len = 700;
            let mut c = CounterArray::new(len, width);
            // Sparse, clustered and word-straddling nonzero counters.
            for i in (0..len).filter(|i| i % 97 == 0 || (300..310).contains(i) || i % 64 == 63) {
                c.set(i, 1 + (i as u64 % c.max_value()));
            }
            let bits = c.nonzero_bits().unwrap();
            assert_eq!(bits.len(), len);
            for i in 0..len {
                assert_eq!(bits.get(i), c.get(i) != 0, "width {width} counter {i}");
            }
        }
    }

    #[test]
    fn nonzero_bits_finds_each_lone_counter() {
        // One nonzero counter at a time, at every index, holding only its
        // top bit: a counter that straddles two words then has its first
        // word zero, and must still be found.
        for width in [1u32, 3, 4, 6, 7, 13, 32] {
            for i in 0..150 {
                let mut c = CounterArray::new(150, width);
                c.set(i, 1 << (width - 1));
                let bits = c.nonzero_bits().unwrap();
                assert_eq!(bits.count_ones(), 1, "width {width} counter {i}");
                assert!(bits.get(i), "width {width} counter {i}");
            }
        }
    }

    #[test]
    fn try_new_reports_overflow() {
        assert_eq!(
            CounterArray::try_new(usize::MAX / 2, 4),
            Err(AllocError::OVERFLOW)
        );
        assert!(CounterArray::try_new(usize::MAX / 64, 32).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn set_rejects_overflow_value() {
        CounterArray::new(4, 4).set(0, 16);
    }
}
