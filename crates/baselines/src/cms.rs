//! Count-Min sketch (Cormode & Muthukrishnan, 2005) — multiplicity baseline
//! (paper §2.3, §5.5, Fig. 11) and the base structure of the shifting
//! count-min sketch.
//!
//! `d` rows × `r` counters; insert increments one counter per row, the
//! point estimate is the row-wise minimum. "Simple and easy to implement,
//! but not memory efficient, as the minimal unit is a counter instead of a
//! bit" (§5.5). An optional conservative-update mode (increment only the
//! minimal counters) is provided for ablations.

use shbf_bits::{AccessStats, CounterArray, Reader, Writer};
use shbf_core::traits::CountEstimator;
use shbf_core::ShbfError;
use shbf_hash::{HashAlg, HashFamily, SeededFamily};

/// Count-Min sketch with `z`-bit saturating counters (Fig. 11 uses z = 6).
#[derive(Debug, Clone)]
pub struct CmSketch {
    counters: CounterArray,
    d: usize,
    r: usize,
    conservative: bool,
    family: SeededFamily,
    alg: HashAlg,
    master_seed: u64,
    items: u64,
}

impl CmSketch {
    /// Creates a `d × r` sketch with 6-bit counters, plain updates.
    pub fn new(d: usize, r: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(d, r, false, 6, HashAlg::Murmur3, seed)
    }

    /// Fully parameterized constructor.
    pub fn with_config(
        d: usize,
        r: usize,
        conservative: bool,
        counter_bits: u32,
        alg: HashAlg,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        if d == 0 || r == 0 {
            return Err(ShbfError::ZeroSize("d/r"));
        }
        shbf_core::check_k(d)?;
        Ok(CmSketch {
            counters: CounterArray::new(d * r, counter_bits),
            d,
            r,
            conservative,
            family: SeededFamily::new(alg, seed, d),
            alg,
            master_seed: seed,
            items: 0,
        })
    }

    /// Number of rows `d`.
    #[inline]
    pub fn d(&self) -> usize {
        self.d
    }

    /// Counters per row `r`.
    #[inline]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Total insertions.
    #[inline]
    pub fn items(&self) -> u64 {
        self.items
    }

    #[inline]
    fn slot(&self, row: usize, item: &[u8]) -> usize {
        row * self.r + shbf_hash::range_reduce(self.family.hash(row, item), self.r)
    }

    /// Records one occurrence of `item`.
    pub fn insert(&mut self, item: &[u8]) {
        let slots: Vec<usize> = (0..self.d).map(|row| self.slot(row, item)).collect();
        if self.conservative {
            let min = slots.iter().map(|&s| self.counters.get(s)).min().unwrap();
            for &s in &slots {
                if self.counters.get(s) == min {
                    self.counters.inc(s);
                }
            }
        } else {
            for &s in &slots {
                self.counters.inc(s);
            }
        }
        self.items += 1;
    }

    /// Point estimate: row-wise minimum; never undershoots.
    pub fn estimate(&self, item: &[u8]) -> u64 {
        (0..self.d)
            .map(|row| self.counters.get(self.slot(row, item)))
            .min()
            .unwrap_or(0)
    }

    /// [`Self::estimate`] with accounting: d hashes, d accesses (Fig. 11(b):
    /// "one query on CM sketch needs d hash computations and memory
    /// accesses").
    pub fn estimate_profiled(&self, item: &[u8], stats: &mut AccessStats) -> u64 {
        stats.record_hashes(self.d as u64);
        stats.record_reads(self.d as u64);
        stats.finish_op();
        self.estimate(item)
    }

    /// Serializes the sketch.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(shbf_core::kind::CMS);
        w.u64(self.d as u64)
            .u64(self.r as u64)
            .u8(u8::from(self.conservative))
            .u8(self.alg.tag())
            .u64(self.master_seed)
            .u64(self.items)
            .counter_array(&self.counters);
        w.finish().to_vec()
    }

    /// Deserializes a sketch produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = Reader::new(blob, shbf_core::kind::CMS)?;
        let d = r.u64()? as usize;
        let cols = r.u64()? as usize;
        let conservative = r.u8()? != 0;
        let alg = HashAlg::from_tag(r.u8()?).ok_or(ShbfError::Codec(
            shbf_bits::CodecError::InvalidField("hash alg"),
        ))?;
        let seed = r.u64()?;
        let items = r.u64()?;
        let counters = r.counter_array()?;
        r.expect_end()?;
        if d.checked_mul(cols) != Some(counters.len()) {
            return Err(ShbfError::Codec(shbf_bits::CodecError::InvalidField(
                "counter array size",
            )));
        }
        let mut s = Self::with_config(d, cols, conservative, counters.width(), alg, seed)?;
        s.counters = counters;
        s.items = items;
        Ok(s)
    }
}

impl CountEstimator for CmSketch {
    fn estimate(&self, item: &[u8]) -> u64 {
        CmSketch::estimate(self, item)
    }

    fn estimate_profiled(&self, item: &[u8], stats: &mut AccessStats) -> u64 {
        CmSketch::estimate_profiled(self, item, stats)
    }

    fn bit_size(&self) -> usize {
        self.d * self.r * self.counters.width() as usize
    }

    fn kind_name(&self) -> &'static str {
        if self.conservative {
            "CM-CU"
        } else {
            "CM"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> [u8; 8] {
        i.to_le_bytes()
    }

    #[test]
    fn estimates_never_undershoot() {
        let mut s = CmSketch::new(4, 8192, 3).unwrap();
        for i in 0..2000u64 {
            for _ in 0..(i % 11 + 1) {
                s.insert(&key(i));
            }
        }
        for i in 0..2000u64 {
            assert!(s.estimate(&key(i)) > i % 11, "element {i}");
        }
    }

    #[test]
    fn conservative_update_dominates_plain() {
        let mut plain = CmSketch::with_config(4, 2048, false, 8, HashAlg::Murmur3, 9).unwrap();
        let mut cu = CmSketch::with_config(4, 2048, true, 8, HashAlg::Murmur3, 9).unwrap();
        for i in 0..4000u64 {
            plain.insert(&key(i % 1000));
            cu.insert(&key(i % 1000));
        }
        let err_plain: u64 = (0..1000u64).map(|i| plain.estimate(&key(i)) - 4).sum();
        let err_cu: u64 = (0..1000u64).map(|i| cu.estimate(&key(i)) - 4).sum();
        assert!(err_cu <= err_plain, "CU {err_cu} > plain {err_plain}");
    }

    #[test]
    fn profiled_costs_are_d() {
        let mut s = CmSketch::new(8, 1024, 1).unwrap();
        s.insert(&key(1));
        let mut stats = AccessStats::new();
        let _ = s.estimate_profiled(&key(1), &mut stats);
        assert_eq!(stats.word_reads, 8);
        assert_eq!(stats.hash_computations, 8);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut s = CmSketch::new(4, 512, 5).unwrap();
        for i in 0..300u64 {
            s.insert(&key(i % 60));
        }
        let t = CmSketch::from_bytes(&s.to_bytes()).unwrap();
        for i in 0..100u64 {
            assert_eq!(s.estimate(&key(i)), t.estimate(&key(i)));
        }
    }

    #[test]
    fn rejects_zero_shape() {
        assert!(CmSketch::new(0, 10, 1).is_err());
        assert!(CmSketch::new(4, 0, 1).is_err());
    }
}
