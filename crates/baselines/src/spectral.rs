//! Spectral Bloom Filter (Cohen & Matias, SIGMOD 2003) — the paper's
//! state-of-the-art multiplicity baseline (§2.3, Fig. 11).
//!
//! Two of the paper's three versions are implemented:
//!
//! * [`SpectralVariant::MinimumSelection`] (MS): CBF counters; queries
//!   return the minimum over the k probed counters.
//! * [`SpectralVariant::MinimumIncrease`] (MI): inserts increment only the
//!   counters currently equal to the minimum — "reduces FPR at the cost of
//!   not supporting updates" (deletions are rejected under MI).
//!
//! (The third version — secondary SBF plus auxiliary tables — is a space
//! optimization of the same estimator; its accuracy equals MS, so Fig. 11
//! does not need it.)

use shbf_bits::{AccessStats, CounterArray, Reader, Writer};
use shbf_core::traits::CountEstimator;
use shbf_core::ShbfError;
use shbf_hash::{HashAlg, HashFamily, SeededFamily};

/// Which Spectral BF insertion strategy is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectralVariant {
    /// Increment all k counters; estimate = min (supports deletion).
    MinimumSelection,
    /// Increment only the minimal counters; lower overestimation, no
    /// deletion support.
    MinimumIncrease,
}

/// Spectral Bloom filter with `z`-bit saturating counters (the paper's
/// Fig. 11 uses z = 6).
#[derive(Debug, Clone)]
pub struct SpectralBf {
    counters: CounterArray,
    m: usize,
    k: usize,
    variant: SpectralVariant,
    family: SeededFamily,
    alg: HashAlg,
    master_seed: u64,
    items: u64,
}

impl SpectralBf {
    /// Creates a Spectral BF with `m` 6-bit counters, `k` hashes, MS
    /// strategy.
    pub fn new(m: usize, k: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(
            m,
            k,
            SpectralVariant::MinimumSelection,
            6,
            HashAlg::Murmur3,
            seed,
        )
    }

    /// Fully parameterized constructor.
    pub fn with_config(
        m: usize,
        k: usize,
        variant: SpectralVariant,
        counter_bits: u32,
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
        Ok(SpectralBf {
            counters: CounterArray::new(m, counter_bits),
            m,
            k,
            variant,
            family: SeededFamily::new(alg, seed, k),
            alg,
            master_seed: seed,
            items: 0,
        })
    }

    /// The insertion strategy.
    #[inline]
    pub fn variant(&self) -> SpectralVariant {
        self.variant
    }

    /// Number of counters.
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

    #[inline]
    fn position(&self, i: usize, item: &[u8]) -> usize {
        shbf_hash::range_reduce(self.family.hash(i, item), self.m)
    }

    /// Records one occurrence of `item`.
    pub fn insert(&mut self, item: &[u8]) {
        let positions: Vec<usize> = (0..self.k).map(|i| self.position(i, item)).collect();
        match self.variant {
            SpectralVariant::MinimumSelection => {
                for &p in &positions {
                    self.counters.inc(p);
                }
            }
            SpectralVariant::MinimumIncrease => {
                let min = positions
                    .iter()
                    .map(|&p| self.counters.get(p))
                    .min()
                    .unwrap();
                for &p in &positions {
                    if self.counters.get(p) == min {
                        self.counters.inc(p);
                    }
                }
            }
        }
        self.items += 1;
    }

    /// Deletes one occurrence (MS only).
    ///
    /// Errors with [`ShbfError::CapacityExceeded`] under MI (the paper:
    /// MI "reduces FPR at the cost of not supporting updates") and with
    /// [`ShbfError::NotFound`] when any counter is already zero.
    pub fn delete(&mut self, item: &[u8]) -> Result<(), ShbfError> {
        if self.variant == SpectralVariant::MinimumIncrease {
            return Err(ShbfError::CapacityExceeded(
                "MI variant does not support deletion",
            ));
        }
        let positions: Vec<usize> = (0..self.k).map(|i| self.position(i, item)).collect();
        if positions.iter().any(|&p| self.counters.get(p) == 0) {
            return Err(ShbfError::NotFound);
        }
        for &p in &positions {
            self.counters.dec(p);
        }
        self.items = self.items.saturating_sub(1);
        Ok(())
    }

    /// Multiplicity estimate: the minimum over the k probed counters. Never
    /// undershoots (for MS and MI both).
    pub fn estimate(&self, item: &[u8]) -> u64 {
        (0..self.k)
            .map(|i| self.counters.get(self.position(i, item)))
            .min()
            .unwrap_or(0)
    }

    /// [`Self::estimate`] with accounting: k hashes, k counter accesses
    /// (no short-circuit — the minimum needs all k).
    pub fn estimate_profiled(&self, item: &[u8], stats: &mut AccessStats) -> u64 {
        stats.record_hashes(self.k as u64);
        stats.record_reads(self.k as u64);
        stats.finish_op();
        self.estimate(item)
    }

    /// Serializes the filter.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(shbf_core::kind::SPECTRAL);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u8(match self.variant {
                SpectralVariant::MinimumSelection => 0,
                SpectralVariant::MinimumIncrease => 1,
            })
            .u8(self.alg.tag())
            .u64(self.master_seed)
            .u64(self.items)
            .counter_array(&self.counters);
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = Reader::new(blob, shbf_core::kind::SPECTRAL)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let variant = match r.u8()? {
            0 => SpectralVariant::MinimumSelection,
            1 => SpectralVariant::MinimumIncrease,
            _ => {
                return Err(ShbfError::Codec(shbf_bits::CodecError::InvalidField(
                    "variant",
                )))
            }
        };
        let alg = HashAlg::from_tag(r.u8()?).ok_or(ShbfError::Codec(
            shbf_bits::CodecError::InvalidField("hash alg"),
        ))?;
        let seed = r.u64()?;
        let items = r.u64()?;
        let counters = r.counter_array()?;
        r.expect_end()?;
        if counters.len() != m {
            return Err(ShbfError::Codec(shbf_bits::CodecError::InvalidField(
                "counter array size",
            )));
        }
        let mut f = Self::with_config(m, k, variant, counters.width(), alg, seed)?;
        f.counters = counters;
        f.items = items;
        Ok(f)
    }
}

impl CountEstimator for SpectralBf {
    fn estimate(&self, item: &[u8]) -> u64 {
        SpectralBf::estimate(self, item)
    }

    fn estimate_profiled(&self, item: &[u8], stats: &mut AccessStats) -> u64 {
        SpectralBf::estimate_profiled(self, item, stats)
    }

    fn bit_size(&self) -> usize {
        self.m * self.counters.width() as usize
    }

    fn kind_name(&self) -> &'static str {
        match self.variant {
            SpectralVariant::MinimumSelection => "SpectralBF-MS",
            SpectralVariant::MinimumIncrease => "SpectralBF-MI",
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
    fn estimates_never_undershoot_ms_and_mi() {
        for variant in [
            SpectralVariant::MinimumSelection,
            SpectralVariant::MinimumIncrease,
        ] {
            let mut f =
                SpectralBf::with_config(40_000, 8, variant, 6, HashAlg::Murmur3, 3).unwrap();
            for i in 0..1000u64 {
                for _ in 0..(i % 7 + 1) {
                    f.insert(&key(i));
                }
            }
            for i in 0..1000u64 {
                assert!(f.estimate(&key(i)) > i % 7, "{variant:?} element {i}");
            }
        }
    }

    #[test]
    fn mi_overestimates_no_more_than_ms() {
        let mut ms = SpectralBf::with_config(
            6000,
            6,
            SpectralVariant::MinimumSelection,
            6,
            HashAlg::Murmur3,
            5,
        )
        .unwrap();
        let mut mi = SpectralBf::with_config(
            6000,
            6,
            SpectralVariant::MinimumIncrease,
            6,
            HashAlg::Murmur3,
            5,
        )
        .unwrap();
        for i in 0..2000u64 {
            for _ in 0..(i % 5 + 1) {
                ms.insert(&key(i));
                mi.insert(&key(i));
            }
        }
        let err_ms: u64 = (0..2000u64)
            .map(|i| ms.estimate(&key(i)) - (i % 5 + 1))
            .sum();
        let err_mi: u64 = (0..2000u64)
            .map(|i| mi.estimate(&key(i)) - (i % 5 + 1))
            .sum();
        assert!(err_mi <= err_ms, "MI error {err_mi} > MS error {err_ms}");
    }

    #[test]
    fn ms_supports_deletion_mi_does_not() {
        let mut ms = SpectralBf::new(5000, 6, 7).unwrap();
        ms.insert(&key(1));
        ms.insert(&key(1));
        ms.delete(&key(1)).unwrap();
        assert_eq!(ms.estimate(&key(1)), 1);

        let mut mi = SpectralBf::with_config(
            5000,
            6,
            SpectralVariant::MinimumIncrease,
            6,
            HashAlg::Murmur3,
            7,
        )
        .unwrap();
        mi.insert(&key(1));
        assert!(mi.delete(&key(1)).is_err());
    }

    #[test]
    fn profiled_costs_are_k() {
        let mut f = SpectralBf::new(5000, 9, 3).unwrap();
        f.insert(&key(4));
        let mut stats = AccessStats::new();
        let _ = f.estimate_profiled(&key(4), &mut stats);
        assert_eq!(stats.word_reads, 9);
        assert_eq!(stats.hash_computations, 9);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut f = SpectralBf::new(3000, 5, 9).unwrap();
        for i in 0..500u64 {
            f.insert(&key(i % 100));
        }
        let g = SpectralBf::from_bytes(&f.to_bytes()).unwrap();
        for i in 0..200u64 {
            assert_eq!(f.estimate(&key(i)), g.estimate(&key(i)));
        }
    }
}
