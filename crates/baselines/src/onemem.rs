//! 1MemBF — the One-Memory-Access Bloom filter (Qiao, Li & Chen,
//! INFOCOM 2011), the paper's state-of-the-art membership baseline
//! (§2.1 \[17\], Figs. 7 and 9).
//!
//! The first hash selects one machine word; the remaining `k` hashes select
//! bit positions *within* that word, so any query reads exactly **one**
//! word. The price (the paper's point in §6.2.1): "hashing k values into
//! one or more words incurs serious unbalance in distributions of 1s and
//! 0s", so the FPR is noticeably worse than BF/ShBF_M at equal memory —
//! 5–10× in Fig. 7, and still worse with 1.5× the memory.

use shbf_bits::{AccessStats, Reader, Writer};
use shbf_core::traits::MembershipFilter;
use shbf_core::ShbfError;
use shbf_hash::{HashAlg, HashFamily, SeededFamily};

/// One-memory-access Bloom filter (word = 64 bits).
#[derive(Debug, Clone)]
pub struct OneMemBf {
    words: Vec<u64>,
    k: usize,
    /// `k + 1` functions: one word selector + k in-word bit selectors.
    family: SeededFamily,
    alg: HashAlg,
    master_seed: u64,
    items: u64,
}

impl OneMemBf {
    /// Creates a filter of (at least) `m` bits, rounded up to whole 64-bit
    /// words, with `k` in-word bits per element.
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
        let n_words = m.div_ceil(64);
        Ok(OneMemBf {
            words: vec![0; n_words],
            k,
            family: SeededFamily::new(alg, seed, k + 1),
            alg,
            master_seed: seed,
            items: 0,
        })
    }

    /// Number of in-word bits per element.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Elements inserted.
    #[inline]
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Builds the in-word mask for `item` (k bit selections, possibly
    /// colliding — that collision is part of the scheme's FPR behaviour).
    #[inline]
    fn mask(&self, item: &[u8]) -> u64 {
        let mut mask = 0u64;
        for i in 1..=self.k {
            mask |= 1u64 << (self.family.hash(i, item) & 63);
        }
        mask
    }

    #[inline]
    fn word_index(&self, item: &[u8]) -> usize {
        shbf_hash::range_reduce(self.family.hash(0, item), self.words.len())
    }

    /// Inserts an element: ORs the k-bit mask into one word.
    pub fn insert(&mut self, item: &[u8]) {
        let w = self.word_index(item);
        let mask = self.mask(item);
        self.words[w] |= mask;
        self.items += 1;
    }

    /// Membership query: one word read, one mask compare.
    #[inline]
    pub fn contains(&self, item: &[u8]) -> bool {
        let w = self.word_index(item);
        let mask = self.mask(item);
        self.words[w] & mask == mask
    }

    /// [`Self::contains`] with accounting: always exactly 1 memory access,
    /// always `k + 1` hash computations (no short-circuit possible — the
    /// mask must be complete before the compare).
    pub fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        stats.record_hashes(self.k as u64 + 1);
        stats.record_reads(1);
        stats.finish_op();
        self.contains(item)
    }

    /// Serializes the filter.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(shbf_core::kind::ONE_MEM_BF);
        w.u64(self.k as u64)
            .u8(self.alg.tag())
            .u64(self.master_seed)
            .u64(self.items)
            .words(&self.words);
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = Reader::new(blob, shbf_core::kind::ONE_MEM_BF)?;
        let k = r.u64()? as usize;
        let alg = HashAlg::from_tag(r.u8()?).ok_or(ShbfError::Codec(
            shbf_bits::CodecError::InvalidField("hash alg"),
        ))?;
        let seed = r.u64()?;
        let items = r.u64()?;
        let words = r.words()?;
        r.expect_end()?;
        if words.is_empty() {
            return Err(ShbfError::ZeroSize("m"));
        }
        let mut f = Self::with_alg(words.len() * 64, k, alg, seed)?;
        f.words = words;
        f.items = items;
        Ok(f)
    }
}

impl MembershipFilter for OneMemBf {
    fn insert(&mut self, item: &[u8]) {
        OneMemBf::insert(self, item);
    }

    fn contains(&self, item: &[u8]) -> bool {
        OneMemBf::contains(self, item)
    }

    fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        OneMemBf::contains_profiled(self, item, stats)
    }

    fn bit_size(&self) -> usize {
        self.words.len() * 64
    }

    fn kind_name(&self) -> &'static str {
        "1MemBF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = OneMemBf::new(22_008, 8, 3).unwrap();
        let keys: Vec<[u8; 8]> = (0..1200u64).map(|i| i.to_le_bytes()).collect();
        for kk in &keys {
            f.insert(kk);
        }
        assert!(keys.iter().all(|kk| f.contains(kk)));
    }

    #[test]
    fn fpr_is_worse_than_bf_at_equal_memory() {
        // Fig. 7's headline: 1MemBF's FPR is several times BF/ShBF_M's.
        let (m, n, k) = (22_008usize, 1200usize, 8usize);
        let mut one = OneMemBf::new(m, k, 21).unwrap();
        let mut bf = crate::Bf::new(m, k, 21).unwrap();
        for i in 0..n as u64 {
            let key = i.to_le_bytes();
            one.insert(&key);
            bf.insert(&key);
        }
        let probes = 300_000u64;
        let fp_one = (0..probes)
            .filter(|i| one.contains(&(i + 5_000_000).to_le_bytes()))
            .count() as f64;
        let fp_bf = (0..probes)
            .filter(|i| bf.contains(&(i + 5_000_000).to_le_bytes()))
            .count() as f64;
        assert!(
            fp_one > 2.0 * fp_bf,
            "1MemBF FPs {fp_one} not clearly worse than BF FPs {fp_bf}"
        );
    }

    #[test]
    fn profiled_cost_is_one_access() {
        let mut f = OneMemBf::new(10_000, 8, 3).unwrap();
        f.insert(b"e");
        let mut stats = AccessStats::new();
        assert!(f.contains_profiled(b"e", &mut stats));
        assert_eq!(stats.word_reads, 1);
        assert_eq!(stats.hash_computations, 9); // k + 1
    }

    #[test]
    fn serialization_roundtrip() {
        let mut f = OneMemBf::new(4096, 6, 13).unwrap();
        for i in 0..300u64 {
            f.insert(&i.to_le_bytes());
        }
        let g = OneMemBf::from_bytes(&f.to_bytes()).unwrap();
        for i in 0..1000u64 {
            assert_eq!(f.contains(&i.to_le_bytes()), g.contains(&i.to_le_bytes()));
        }
    }
}
