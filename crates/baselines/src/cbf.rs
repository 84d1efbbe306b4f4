//! The counting Bloom filter (Fan et al., 2000) — BF with counters so that
//! deletion is possible (paper §1.1).

use shbf_bits::{AccessStats, CounterArray, Reader, Writer};
use shbf_core::traits::MembershipFilter;
use shbf_core::ShbfError;
use shbf_hash::{HashAlg, HashFamily, SeededFamily};

/// Counting Bloom filter with `z`-bit saturating counters.
#[derive(Debug, Clone)]
pub struct Cbf {
    counters: CounterArray,
    m: usize,
    k: usize,
    family: SeededFamily,
    alg: HashAlg,
    master_seed: u64,
    items: u64,
}

impl Cbf {
    /// Creates a CBF of `m` 4-bit counters with `k` hash functions.
    pub fn new(m: usize, k: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(m, k, 4, HashAlg::Murmur3, seed)
    }

    /// Fully parameterized constructor.
    pub fn with_config(
        m: usize,
        k: usize,
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
        Ok(Cbf {
            counters: CounterArray::new(m, counter_bits),
            m,
            k,
            family: SeededFamily::new(alg, seed, k),
            alg,
            master_seed: seed,
            items: 0,
        })
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

    /// Net elements represented.
    #[inline]
    pub fn items(&self) -> u64 {
        self.items
    }

    #[inline]
    fn position(&self, i: usize, item: &[u8]) -> usize {
        shbf_hash::range_reduce(self.family.hash(i, item), self.m)
    }

    /// Inserts an element (increments k counters).
    pub fn insert(&mut self, item: &[u8]) {
        for i in 0..self.k {
            let pos = self.position(i, item);
            self.counters.inc(pos);
        }
        self.items += 1;
    }

    /// Deletes an element. Verifies all k counters are nonzero first and
    /// errors with [`ShbfError::NotFound`] (no mutation) otherwise.
    pub fn delete(&mut self, item: &[u8]) -> Result<(), ShbfError> {
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

    /// Membership query (`∧ C[h_i] ≥ 1`), short-circuiting.
    #[inline]
    pub fn contains(&self, item: &[u8]) -> bool {
        (0..self.k).all(|i| self.counters.get(self.position(i, item)) >= 1)
    }

    /// [`Self::contains`] with accounting (one access per probed counter).
    pub fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        let mut result = true;
        for i in 0..self.k {
            stats.record_hashes(1);
            stats.record_reads(1);
            if self.counters.get(self.position(i, item)) == 0 {
                result = false;
                break;
            }
        }
        stats.finish_op();
        result
    }

    /// Serializes the filter.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(shbf_core::kind::CBF);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u8(self.alg.tag())
            .u64(self.master_seed)
            .u64(self.items)
            .counter_array(&self.counters);
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = Reader::new(blob, shbf_core::kind::CBF)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
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
        let mut f = Self::with_config(m, k, counters.width(), alg, seed)?;
        f.counters = counters;
        f.items = items;
        Ok(f)
    }
}

impl MembershipFilter for Cbf {
    fn insert(&mut self, item: &[u8]) {
        Cbf::insert(self, item);
    }

    fn contains(&self, item: &[u8]) -> bool {
        Cbf::contains(self, item)
    }

    fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        Cbf::contains_profiled(self, item, stats)
    }

    fn bit_size(&self) -> usize {
        self.m * self.counters.width() as usize
    }

    fn kind_name(&self) -> &'static str {
        "CBF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_delete_cycle() {
        let mut f = Cbf::new(5000, 7, 3).unwrap();
        let keys: Vec<Vec<u8>> = (0..300u64).map(|i| i.to_le_bytes().to_vec()).collect();
        for kk in &keys {
            f.insert(kk);
        }
        assert!(keys.iter().all(|kk| f.contains(kk)));
        for kk in &keys {
            f.delete(kk).unwrap();
        }
        assert!(keys.iter().all(|kk| !f.contains(kk)));
        assert_eq!(f.items(), 0);
    }

    #[test]
    fn delete_absent_detected() {
        let mut f = Cbf::new(5000, 7, 3).unwrap();
        f.insert(b"x");
        assert_eq!(f.delete(b"y"), Err(ShbfError::NotFound));
        assert!(f.contains(b"x"));
    }

    #[test]
    fn matches_bf_fpr() {
        // A CBF has exactly a BF's FPR (counter ≥ 1 ⇔ bit set).
        let (m, k) = (9000usize, 6usize);
        let mut cbf = Cbf::new(m, k, 7).unwrap();
        let mut bf = crate::Bf::new(m, k, 7).unwrap();
        for i in 0..800u64 {
            let key = i.to_le_bytes();
            cbf.insert(&key);
            bf.insert(&key);
        }
        for i in 0..20_000u64 {
            let key = (i + 1_000_000).to_le_bytes();
            assert_eq!(cbf.contains(&key), bf.contains(&key), "probe {i}");
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let mut f = Cbf::with_config(2000, 5, 6, HashAlg::Lookup3, 9).unwrap();
        for i in 0..200u64 {
            f.insert(&i.to_le_bytes());
        }
        let g = Cbf::from_bytes(&f.to_bytes()).unwrap();
        for i in 0..500u64 {
            assert_eq!(f.contains(&i.to_le_bytes()), g.contains(&i.to_le_bytes()));
        }
    }
}
