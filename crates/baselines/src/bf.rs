//! The standard Bloom filter (Bloom, 1970) — the paper's primary membership
//! baseline (§1.1, Figs. 4, 8, 9).
//!
//! `k` independent seeded hash functions; a query probes one bit per hash
//! (one memory access each, the cost ShBF_M halves) and short-circuits at
//! the first zero.

use shbf_bits::{AccessStats, BitArray, Reader, Writer};
use shbf_core::traits::MembershipFilter;
use shbf_core::ShbfError;
use shbf_hash::{HashAlg, HashFamily, SeededFamily};

/// Standard Bloom filter.
#[derive(Debug, Clone)]
pub struct Bf {
    bits: BitArray,
    m: usize,
    k: usize,
    family: SeededFamily,
    alg: HashAlg,
    master_seed: u64,
    items: u64,
}

impl Bf {
    /// Creates a filter of `m` bits with `k` hash functions (Murmur3).
    pub fn new(m: usize, k: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_alg(m, k, HashAlg::Murmur3, seed)
    }

    /// Creates a filter with an explicit hash algorithm.
    pub fn with_alg(m: usize, k: usize, alg: HashAlg, seed: u64) -> Result<Self, ShbfError> {
        if m == 0 {
            return Err(ShbfError::ZeroSize("m"));
        }
        if k == 0 {
            return Err(ShbfError::KZero);
        }
        shbf_core::check_k(k)?;
        Ok(Bf {
            bits: BitArray::new(m),
            m,
            k,
            family: SeededFamily::new(alg, seed, k),
            alg,
            master_seed: seed,
            items: 0,
        })
    }

    /// Optimal `k = (m/n)·ln 2` rounded to the nearest integer ≥ 1.
    pub fn optimal_k(m: usize, n: usize) -> usize {
        (((m as f64 / n as f64) * std::f64::consts::LN_2).round() as usize).max(1)
    }

    /// Array size `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of hash functions.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Elements inserted.
    #[inline]
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    #[inline]
    fn position(&self, i: usize, item: &[u8]) -> usize {
        shbf_hash::range_reduce(self.family.hash(i, item), self.m)
    }

    /// Inserts an element (sets k bits).
    pub fn insert(&mut self, item: &[u8]) {
        for i in 0..self.k {
            let pos = self.position(i, item);
            self.bits.set(pos);
        }
        self.items += 1;
    }

    /// Membership query with short-circuit.
    #[inline]
    pub fn contains(&self, item: &[u8]) -> bool {
        for i in 0..self.k {
            if !self.bits.get(self.position(i, item)) {
                return false;
            }
        }
        true
    }

    /// Membership query with **eager hashing**: all k hash values computed
    /// up front, then probed (probes short-circuit). The paper-era
    /// implementation convention; see `ShbfM::contains_eager`.
    pub fn contains_eager(&self, item: &[u8]) -> bool {
        debug_assert!(self.k <= 64, "eager path supports k <= 64");
        let mut positions = [0usize; 64];
        for (i, slot) in positions[..self.k].iter_mut().enumerate() {
            *slot = shbf_hash::range_reduce(self.family.hash(i, item), self.m);
        }
        positions[..self.k].iter().all(|&p| self.bits.get(p))
    }

    /// [`Self::contains`] with accounting: one hash + one read per probed
    /// bit (up to k of each — twice ShBF_M's cost, the Fig. 8/9 story).
    pub fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        let mut result = true;
        for i in 0..self.k {
            stats.record_hashes(1);
            stats.record_reads(1);
            if !self.bits.get(self.position(i, item)) {
                result = false;
                break;
            }
        }
        stats.finish_op();
        result
    }

    /// Serializes the filter.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(shbf_core::kind::BF);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u8(self.alg.tag())
            .u64(self.master_seed)
            .u64(self.items)
            .bit_array(&self.bits);
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = Reader::new(blob, shbf_core::kind::BF)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let alg = HashAlg::from_tag(r.u8()?).ok_or(ShbfError::Codec(
            shbf_bits::CodecError::InvalidField("hash alg"),
        ))?;
        let seed = r.u64()?;
        let items = r.u64()?;
        let bits = r.bit_array()?;
        r.expect_end()?;
        if bits.len() != m {
            return Err(ShbfError::Codec(shbf_bits::CodecError::InvalidField(
                "bit array size",
            )));
        }
        let mut f = Self::with_alg(m, k, alg, seed)?;
        f.bits = bits;
        f.items = items;
        Ok(f)
    }
}

impl MembershipFilter for Bf {
    fn insert(&mut self, item: &[u8]) {
        Bf::insert(self, item);
    }

    fn contains(&self, item: &[u8]) -> bool {
        Bf::contains(self, item)
    }

    fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        Bf::contains_profiled(self, item, stats)
    }

    fn bit_size(&self) -> usize {
        self.m
    }

    fn kind_name(&self) -> &'static str {
        "BF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(range: std::ops::Range<u64>, tag: u8) -> Vec<Vec<u8>> {
        range
            .map(|i| {
                let mut v = vec![tag];
                v.extend_from_slice(&i.to_le_bytes());
                v
            })
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let set = keys(0..3000, 1);
        let mut f = Bf::new(40_000, 7, 3).unwrap();
        for it in &set {
            f.insert(it);
        }
        assert!(set.iter().all(|it| f.contains(it)));
    }

    #[test]
    fn fpr_matches_bloom_formula() {
        // n chosen so theory ≈ 1e-3: 200k probes give ~200 expected FPs,
        // making a 15% relative band ≈ 2σ of Poisson noise.
        let (m, n, k) = (22_008usize, 1500usize, 8usize);
        let set = keys(0..n as u64, 2);
        let mut f = Bf::new(m, k, 17).unwrap();
        for it in &set {
            f.insert(it);
        }
        let probes = keys(0..200_000, 3);
        let fp = probes.iter().filter(|p| f.contains(p)).count();
        let measured = fp as f64 / probes.len() as f64;
        let theory = (1.0 - (-(n as f64) * k as f64 / m as f64).exp()).powf(k as f64);
        assert!(
            (measured - theory).abs() / theory < 0.15,
            "measured {measured:.5} vs theory {theory:.5}"
        );
    }

    #[test]
    fn optimal_k_formula() {
        assert_eq!(Bf::optimal_k(100_000, 10_000), 7); // 6.93 -> 7
        assert_eq!(Bf::optimal_k(10, 1_000_000), 1);
    }

    #[test]
    fn profiled_costs_are_k_per_positive_query() {
        let mut f = Bf::new(10_000, 8, 5).unwrap();
        f.insert(b"present");
        let mut stats = AccessStats::new();
        assert!(f.contains_profiled(b"present", &mut stats));
        assert_eq!(stats.word_reads, 8);
        assert_eq!(stats.hash_computations, 8);
        // Negative queries short-circuit early on a sparse filter.
        let mut stats = AccessStats::new();
        let _ = f.contains_profiled(b"absent", &mut stats);
        assert!(stats.word_reads <= 2);
    }

    #[test]
    fn serialization_roundtrip() {
        let set = keys(0..500, 4);
        let mut f = Bf::with_alg(8000, 5, HashAlg::XxHash64, 23).unwrap();
        for it in &set {
            f.insert(it);
        }
        let g = Bf::from_bytes(&f.to_bytes()).unwrap();
        for it in keys(0..2000, 4) {
            assert_eq!(f.contains(&it), g.contains(&it));
        }
    }

    #[test]
    fn rejects_zero_parameters() {
        assert!(Bf::new(0, 4, 1).is_err());
        assert!(Bf::new(100, 0, 1).is_err());
    }
}
