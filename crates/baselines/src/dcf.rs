//! Dynamic Count Filters (Aguilar-Saborit, Trancoso, Muntés-Mulero &
//! Larriba-Pey, SIGMOD Record 2006) — related work for multiplicity
//! queries (paper §2.3): "DCF uses two filters: the first filter uses
//! fixed size counters and the second filter dynamically adjusts counter
//! sizes. The use of two filters degrades query performance."
//!
//! Implementation: a CBF-like base vector of fixed `zb`-bit counters plus an
//! overflow counter vector (OFV) whose width starts small and doubles
//! whenever any overflow counter saturates. `count(i) = base(i) +
//! (ofv(i) << zb)`; a query therefore touches **two** structures per hash —
//! exactly the performance drawback the paper cites.

use shbf_bits::{AccessStats, CounterArray};
use shbf_core::traits::CountEstimator;
use shbf_core::ShbfError;
use shbf_hash::{HashAlg, HashFamily, SeededFamily};

/// Dynamic Count Filter.
#[derive(Debug, Clone)]
pub struct Dcf {
    /// Fixed-width base counters (CBF layer).
    base: CounterArray,
    /// Overflow counters; width doubles on demand (the "dynamic" part).
    overflow: CounterArray,
    m: usize,
    k: usize,
    base_bits: u32,
    family: SeededFamily,
    items: u64,
    /// Number of OFV re-sizings performed so far.
    regrowths: u32,
}

impl Dcf {
    /// Creates a DCF with `m` positions, `k` hashes, 4-bit base counters and
    /// a 2-bit initial overflow layer.
    pub fn new(m: usize, k: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(m, k, 4, HashAlg::Murmur3, seed)
    }

    /// Fully parameterized constructor.
    pub fn with_config(
        m: usize,
        k: usize,
        base_bits: u32,
        alg: HashAlg,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        if m == 0 {
            return Err(ShbfError::ZeroSize("m"));
        }
        if k == 0 {
            return Err(ShbfError::KZero);
        }
        shbf_core::check_k(k)?;
        Ok(Dcf {
            base: CounterArray::new(m, base_bits),
            overflow: CounterArray::new(m, 2),
            m,
            k,
            base_bits,
            family: SeededFamily::new(alg, seed, k),
            items: 0,
            regrowths: 0,
        })
    }

    /// Number of positions.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of hash functions.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total insertions.
    #[inline]
    pub fn items(&self) -> u64 {
        self.items
    }

    /// How many times the overflow layer was rebuilt wider.
    #[inline]
    pub fn regrowths(&self) -> u32 {
        self.regrowths
    }

    /// Current overflow-layer width in bits.
    #[inline]
    pub fn overflow_bits(&self) -> u32 {
        self.overflow.width()
    }

    #[inline]
    fn position(&self, i: usize, item: &[u8]) -> usize {
        shbf_hash::range_reduce(self.family.hash(i, item), self.m)
    }

    #[inline]
    fn combined(&self, idx: usize) -> u64 {
        self.base.get(idx) + (self.overflow.get(idx) << self.base_bits)
    }

    /// Grows the overflow layer to double width, copying counters.
    fn grow_overflow(&mut self) {
        let new_width = (self.overflow.width() * 2).min(32);
        let mut grown = CounterArray::new(self.m, new_width);
        for i in 0..self.m {
            grown.set(i, self.overflow.get(i));
        }
        self.overflow = grown;
        self.regrowths += 1;
    }

    fn inc_position(&mut self, idx: usize) {
        let b = self.base.get(idx);
        if b < self.base.max_value() {
            self.base.set(idx, b + 1);
            return;
        }
        // Base rolls over into the overflow layer.
        self.base.set(idx, 0);
        if self.overflow.get(idx) == self.overflow.max_value() {
            if self.overflow.width() >= 32 {
                // Fully saturated; pin the position at max (sticky).
                self.base.set(idx, self.base.max_value());
                return;
            }
            self.grow_overflow();
        }
        self.overflow.inc(idx);
    }

    fn dec_position(&mut self, idx: usize) {
        let b = self.base.get(idx);
        if b > 0 {
            self.base.set(idx, b - 1);
            return;
        }
        let o = self.overflow.get(idx);
        if o > 0 {
            self.overflow.set(idx, o - 1);
            self.base.set(idx, self.base.max_value());
        }
        // Both zero: nothing to decrement (caller verifies membership first).
    }

    /// Records one occurrence of `item`.
    pub fn insert(&mut self, item: &[u8]) {
        for i in 0..self.k {
            let idx = self.position(i, item);
            self.inc_position(idx);
        }
        self.items += 1;
    }

    /// Deletes one occurrence. Errors with [`ShbfError::NotFound`] if any
    /// position is zero (no mutation in that case).
    pub fn delete(&mut self, item: &[u8]) -> Result<(), ShbfError> {
        let positions: Vec<usize> = (0..self.k).map(|i| self.position(i, item)).collect();
        if positions.iter().any(|&p| self.combined(p) == 0) {
            return Err(ShbfError::NotFound);
        }
        for &p in &positions {
            self.dec_position(p);
        }
        self.items = self.items.saturating_sub(1);
        Ok(())
    }

    /// Multiplicity estimate: minimum combined count over the k positions.
    pub fn estimate(&self, item: &[u8]) -> u64 {
        (0..self.k)
            .map(|i| self.combined(self.position(i, item)))
            .min()
            .unwrap_or(0)
    }

    /// [`Self::estimate`] with accounting: **two** reads per hash (base +
    /// overflow layers — the double-access cost §2.3 calls out).
    pub fn estimate_profiled(&self, item: &[u8], stats: &mut AccessStats) -> u64 {
        stats.record_hashes(self.k as u64);
        stats.record_reads(2 * self.k as u64);
        stats.finish_op();
        self.estimate(item)
    }
}

impl CountEstimator for Dcf {
    fn estimate(&self, item: &[u8]) -> u64 {
        Dcf::estimate(self, item)
    }

    fn estimate_profiled(&self, item: &[u8], stats: &mut AccessStats) -> u64 {
        Dcf::estimate_profiled(self, item, stats)
    }

    fn bit_size(&self) -> usize {
        self.m * (self.base_bits + self.overflow.width()) as usize
    }

    fn kind_name(&self) -> &'static str {
        "DCF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> [u8; 8] {
        i.to_le_bytes()
    }

    #[test]
    fn counts_beyond_base_width() {
        // 4-bit base saturates at 15; DCF must keep counting via overflow.
        let mut f = Dcf::new(5000, 4, 3).unwrap();
        for _ in 0..100 {
            f.insert(&key(1));
        }
        assert!(f.estimate(&key(1)) >= 100);
    }

    #[test]
    fn overflow_layer_grows_dynamically() {
        let mut f = Dcf::new(200, 2, 5).unwrap();
        assert_eq!(f.overflow_bits(), 2);
        // 4-bit base (max 15) + 2-bit overflow (max 3) caps at 15 + 48 = 63;
        // pushing one key to 200 forces regrowth.
        for _ in 0..200 {
            f.insert(&key(7));
        }
        assert!(f.regrowths() > 0);
        assert!(f.overflow_bits() > 2);
        assert!(f.estimate(&key(7)) >= 200);
    }

    #[test]
    fn estimates_never_undershoot() {
        let mut f = Dcf::new(8000, 5, 9).unwrap();
        for i in 0..500u64 {
            for _ in 0..(i % 30 + 1) {
                f.insert(&key(i));
            }
        }
        for i in 0..500u64 {
            assert!(f.estimate(&key(i)) > i % 30, "element {i}");
        }
    }

    #[test]
    fn delete_roundtrip() {
        let mut f = Dcf::new(3000, 4, 11).unwrap();
        for _ in 0..20 {
            f.insert(&key(2));
        }
        for _ in 0..20 {
            f.delete(&key(2)).unwrap();
        }
        assert_eq!(f.estimate(&key(2)), 0);
        assert_eq!(f.delete(&key(2)), Err(ShbfError::NotFound));
    }

    #[test]
    fn delete_across_overflow_boundary() {
        let mut f = Dcf::new(100, 1, 13).unwrap();
        // Count 17 = base 15 rolls into overflow at 16.
        for _ in 0..17 {
            f.insert(&key(3));
        }
        assert_eq!(f.estimate(&key(3)), 17);
        for expected in (0..17u64).rev() {
            f.delete(&key(3)).unwrap();
            assert_eq!(f.estimate(&key(3)), expected, "after delete to {expected}");
        }
    }

    #[test]
    fn profiled_query_pays_double_reads() {
        let mut f = Dcf::new(1000, 6, 1).unwrap();
        f.insert(&key(4));
        let mut stats = AccessStats::new();
        let _ = f.estimate_profiled(&key(4), &mut stats);
        assert_eq!(stats.word_reads, 12); // 2k
    }
}
