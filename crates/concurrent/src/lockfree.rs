//! Lock-free membership filters over [`AtomicBitArray`].

use shbf_bits::access::MemoryModel;
use shbf_bits::AtomicBitArray;
use shbf_core::{ShbfError, ShbfM};
use shbf_hash::{HashAlg, HashFamily, SeededFamily};

/// Lock-free ShBF_M: `insert(&self)` and `contains(&self)` may be called
/// from any number of threads simultaneously.
#[derive(Debug)]
pub struct ConcurrentShbfM {
    bits: AtomicBitArray,
    m: usize,
    k: usize,
    w_bar: usize,
    family: SeededFamily,
}

impl ConcurrentShbfM {
    /// Creates a filter with the paper's defaults (`w̄ = 57`, Murmur3).
    pub fn new(m: usize, k: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(
            m,
            k,
            MemoryModel::default().max_window(),
            HashAlg::Murmur3,
            seed,
        )
    }

    /// Fully parameterized constructor (same validation as [`ShbfM`]).
    pub fn with_config(
        m: usize,
        k: usize,
        w_bar: usize,
        alg: HashAlg,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        // Delegate validation to the sequential constructor.
        let template = ShbfM::with_config(m, k, w_bar, alg, seed)?;
        let _ = template;
        Ok(ConcurrentShbfM {
            bits: AtomicBitArray::new(m + w_bar - 1),
            m,
            k,
            w_bar,
            family: SeededFamily::new(alg, seed, k / 2 + 1),
        })
    }

    /// Logical size `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Nominal `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn pairs(&self) -> usize {
        self.k / 2
    }

    #[inline]
    fn offset(&self, item: &[u8]) -> usize {
        shbf_hash::range_reduce(self.family.hash(self.pairs(), item), self.w_bar - 1) + 1
    }

    /// Inserts an element (lock-free; safe to race with other inserts and
    /// queries).
    pub fn insert(&self, item: &[u8]) {
        let o = self.offset(item);
        for i in 0..self.pairs() {
            let pos = shbf_hash::range_reduce(self.family.hash(i, item), self.m);
            self.bits.set(pos);
            self.bits.set(pos + o);
        }
    }

    /// Membership query (lock-free, short-circuiting).
    pub fn contains(&self, item: &[u8]) -> bool {
        let o = self.offset(item);
        for i in 0..self.pairs() {
            let pos = shbf_hash::range_reduce(self.family.hash(i, item), self.m);
            let (b0, b1) = self.bits.probe_pair(pos, o);
            if !(b0 && b1) {
                return false;
            }
        }
        true
    }

    /// Fraction of set bits (snapshot).
    pub fn fill_ratio(&self) -> f64 {
        self.bits.count_ones() as f64 / self.bits.len() as f64
    }
}

/// Lock-free standard Bloom filter (baseline for scaling comparisons).
#[derive(Debug)]
pub struct ConcurrentBf {
    bits: AtomicBitArray,
    m: usize,
    k: usize,
    family: SeededFamily,
}

impl ConcurrentBf {
    /// Creates a filter of `m` bits with `k` hashes.
    pub fn new(m: usize, k: usize, seed: u64) -> Result<Self, ShbfError> {
        if m == 0 {
            return Err(ShbfError::ZeroSize("m"));
        }
        if k == 0 {
            return Err(ShbfError::KZero);
        }
        Ok(ConcurrentBf {
            bits: AtomicBitArray::new(m),
            m,
            k,
            family: SeededFamily::new(HashAlg::Murmur3, seed, k),
        })
    }

    /// Inserts an element (lock-free).
    pub fn insert(&self, item: &[u8]) {
        for i in 0..self.k {
            self.bits
                .set(shbf_hash::range_reduce(self.family.hash(i, item), self.m));
        }
    }

    /// Membership query (lock-free, short-circuiting).
    pub fn contains(&self, item: &[u8]) -> bool {
        (0..self.k).all(|i| {
            self.bits
                .get(shbf_hash::range_reduce(self.family.hash(i, item), self.m))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn keys(range: std::ops::Range<u64>) -> Vec<[u8; 8]> {
        range.map(|i| i.to_le_bytes()).collect()
    }

    #[test]
    fn sequential_behaviour_matches_shbf_m() {
        // Same seed/params ⇒ identical bit addressing ⇒ identical answers.
        let concurrent = ConcurrentShbfM::new(20_000, 8, 99).unwrap();
        let mut sequential = ShbfM::new(20_000, 8, 99).unwrap();
        for key in keys(0..1500) {
            concurrent.insert(&key);
            sequential.insert(&key);
        }
        for key in keys(0..50_000) {
            assert_eq!(concurrent.contains(&key), sequential.contains(&key));
        }
    }

    #[test]
    fn concurrent_inserts_have_no_false_negatives() {
        let filter = Arc::new(ConcurrentShbfM::new(200_000, 8, 5).unwrap());
        let threads = 4u64;
        let per_thread = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = Arc::clone(&filter);
                std::thread::spawn(move || {
                    for i in (t * per_thread)..((t + 1) * per_thread) {
                        f.insert(&i.to_le_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..(threads * per_thread) {
            assert!(filter.contains(&i.to_le_bytes()), "lost insert {i}");
        }
    }

    #[test]
    fn readers_race_with_writers_safely() {
        let filter = Arc::new(ConcurrentShbfM::new(100_000, 8, 5).unwrap());
        let writer = {
            let f = Arc::clone(&filter);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    f.insert(&i.to_le_bytes());
                }
            })
        };
        // Readers must never see a false negative for already-inserted keys.
        let reader = {
            let f = Arc::clone(&filter);
            std::thread::spawn(move || {
                let mut confirmed = 0u64;
                for round in 0..10u64 {
                    for i in 0..(round * 1000) {
                        if f.contains(&i.to_le_bytes()) {
                            confirmed += 1;
                        }
                    }
                }
                confirmed
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        for i in 0..20_000u64 {
            assert!(filter.contains(&i.to_le_bytes()));
        }
    }

    #[test]
    fn concurrent_bf_matches_lock_free_semantics() {
        let filter = Arc::new(ConcurrentBf::new(100_000, 6, 3).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let f = Arc::clone(&filter);
                scope.spawn(move || {
                    for i in 0..3000u64 {
                        f.insert(&(t * 1_000_000 + i).to_le_bytes());
                    }
                });
            }
        });
        for t in 0..4u64 {
            for i in 0..3000u64 {
                assert!(filter.contains(&(t * 1_000_000 + i).to_le_bytes()));
            }
        }
    }
}
