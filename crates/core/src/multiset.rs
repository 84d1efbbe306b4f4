//! CShBF_MS — a counting multi-set generalization of ShBF_A.
//!
//! ShBF_A (§4) distinguishes *two* sets by encoding an element's region as
//! one of three offsets. The same shifting idea generalizes to `N` sets
//! directly: inserting `e` into set `j` sets bit `h_i(e) % m + j` for each
//! of the `k` hashes, so the offset *is* the set id. A query reads the
//! `N`-bit window at each of the `k` base positions and ANDs them: the
//! surviving bit positions are the candidate set ids — all `N` answers in
//! `k` memory accesses, one window read each, exactly the trade the paper
//! optimizes for. Because `N ≤ w̄ ≤ w − 7`, every window still sits in at
//! most two machine words (Calderoni et al.'s multi-set assessment studies
//! this same direct-offset construction; see PAPERS.md).
//!
//! Like the other counting variants, the DRAM-side [`CounterArray`] makes
//! deletion safe while the SRAM-side [`BitArray`] mirror serves queries.
//! An authoritative table of per-key set masks keeps inserts idempotent
//! (these are sets, not bags) and rejects deletes of absent pairs, the
//! same role T1/T2 play for [`crate::CShbfA`].

use shbf_bits::access::MemoryModel;
use shbf_bits::{BitArray, CounterArray};
use shbf_hash::fnv::FnvHashMap;
use shbf_hash::{FamilyKind, HashAlg, QueryFamily};

use crate::error::ShbfError;
use crate::BATCH_CHUNK;

/// Serialization kind tag (core tags 1–8 are claimed in-crate, the
/// sharded wrapper takes 9; the multi-set filter claims 10).
const CSHBF_MS_KIND: u16 = 10;

/// Counting Shifting Bloom Filter mapping keys to one or more of `N`
/// set ids in a single filter.
#[derive(Debug, Clone)]
pub struct CShbfMs {
    counters: CounterArray,
    bits: BitArray,
    /// Authoritative per-key membership masks (bit `j` ⇔ key ∈ set `j`).
    table: FnvHashMap<Vec<u8>, u64>,
    /// Net (key, set) memberships — kept incrementally so stats don't
    /// walk the table.
    pairs: u64,
    m: usize,
    k: usize,
    sets: usize,
    family: QueryFamily,
    master_seed: u64,
}

impl CShbfMs {
    /// Creates an empty multi-set filter over `sets` sets with 4-bit
    /// counters and Murmur3 hashing.
    pub fn new(m: usize, k: usize, sets: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_family(m, k, sets, 4, FamilyKind::Seeded(HashAlg::Murmur3), seed)
    }

    /// Fully parameterized constructor. `sets` doubles as the query window
    /// width, so it is bounded by the single-access window `w̄`.
    pub fn with_family(
        m: usize,
        k: usize,
        sets: usize,
        counter_bits: u32,
        family: FamilyKind,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        let physical = Self::physical_slots(m, k, sets, counter_bits)?;
        let counters = CounterArray::try_new(physical, counter_bits)?;
        let bits = BitArray::try_new(physical)?;
        Ok(Self::from_parts(counters, bits, m, k, sets, family, seed))
    }

    /// Validates the parameters and returns the physical array length
    /// `m + N − 1` shared by the counters and the bit mirror.
    fn physical_slots(
        m: usize,
        k: usize,
        sets: usize,
        counter_bits: u32,
    ) -> Result<usize, ShbfError> {
        if m == 0 {
            return Err(ShbfError::ZeroSize("m"));
        }
        if k == 0 {
            return Err(ShbfError::KZero);
        }
        crate::geometry::check_k(k)?;
        crate::geometry::check_counter_bits(counter_bits)?;
        let max = MemoryModel::default().max_window();
        if !(2..=max).contains(&sets) {
            return Err(ShbfError::WBarOutOfRange { w_bar: sets, max });
        }
        crate::geometry::physical(m, sets - 1)
    }

    /// Assembles a filter with an empty mask table around validated
    /// arrays of the same length.
    fn from_parts(
        counters: CounterArray,
        bits: BitArray,
        m: usize,
        k: usize,
        sets: usize,
        family: FamilyKind,
        seed: u64,
    ) -> Self {
        CShbfMs {
            counters,
            bits,
            table: FnvHashMap::default(),
            pairs: 0,
            m,
            k,
            sets,
            family: QueryFamily::new(family, seed, k),
            master_seed: seed,
        }
    }

    /// Number of sets this filter distinguishes.
    #[inline]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of distinct keys present in at least one set.
    pub fn keys(&self) -> usize {
        self.table.len()
    }

    /// Net (key, set) memberships.
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    fn encode(&mut self, item: &[u8], set: usize) {
        let key = self.family.prepare(item);
        for i in 0..self.k {
            let idx = shbf_hash::range_reduce(key.index(i), self.m) + set;
            self.counters.inc(idx);
            self.bits.set(idx);
        }
    }

    fn unencode(&mut self, item: &[u8], set: usize) {
        let key = self.family.prepare(item);
        for i in 0..self.k {
            let idx = shbf_hash::range_reduce(key.index(i), self.m) + set;
            if let Some(0) = self.counters.dec(idx) {
                self.bits.clear(idx);
            }
        }
    }

    /// Inserts `item` into set `set` (idempotent). Returns `true` when the
    /// (key, set) pair is new, `false` when it was already a member. Errors
    /// when `set` is not one of this filter's `0..sets` ids.
    pub fn insert(&mut self, item: &[u8], set: usize) -> Result<bool, ShbfError> {
        if set >= self.sets {
            return Err(ShbfError::WBarOutOfRange {
                w_bar: set,
                max: self.sets - 1,
            });
        }
        let mask = self.table.entry(item.to_vec()).or_insert(0);
        if *mask & (1 << set) != 0 {
            return Ok(false);
        }
        *mask |= 1 << set;
        self.pairs += 1;
        self.encode(item, set);
        Ok(true)
    }

    /// Removes `item` from set `set`, returning the key's remaining
    /// membership mask (0 = gone from every set). Errors with
    /// [`ShbfError::NotFound`] if the pair was not a member.
    pub fn remove(&mut self, item: &[u8], set: usize) -> Result<u64, ShbfError> {
        if set >= self.sets {
            return Err(ShbfError::WBarOutOfRange {
                w_bar: set,
                max: self.sets - 1,
            });
        }
        let Some(mask) = self.table.get_mut(item) else {
            return Err(ShbfError::NotFound);
        };
        if *mask & (1 << set) == 0 {
            return Err(ShbfError::NotFound);
        }
        *mask &= !(1 << set);
        let remaining = *mask;
        if remaining == 0 {
            self.table.remove(item);
        }
        self.pairs -= 1;
        self.unencode(item, set);
        Ok(remaining)
    }

    /// Candidate-set query against the bit mirror: bit `j` of the result
    /// is set iff `item` is *possibly* in set `j` (no false negatives;
    /// per-set false positives at the usual Bloom rate).
    pub fn query(&self, item: &[u8]) -> u64 {
        let key = self.family.prepare(item);
        let mut mask = if self.sets == 64 {
            u64::MAX
        } else {
            (1u64 << self.sets) - 1
        };
        for i in 0..self.k {
            let pos = shbf_hash::range_reduce(key.index(i), self.m);
            mask &= self.bits.read_window(pos, self.sets);
            if mask == 0 {
                break;
            }
        }
        mask
    }

    /// Batched candidate-set queries, one mask per item in input order,
    /// via the prefetched two-stage pipeline.
    pub fn query_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<u64> {
        let mut out = Vec::with_capacity(items.len());
        self.query_batch_into(items, &mut out);
        out
    }

    /// [`Self::query_batch`] writing into a caller-owned buffer (cleared
    /// first): stage 1 hashes a chunk and prefetches every probe word,
    /// stage 2 ANDs the windows, so probe cache misses overlap.
    pub fn query_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(items.len());
        let k = self.k;
        let full = if self.sets == 64 {
            u64::MAX
        } else {
            (1u64 << self.sets) - 1
        };
        let mut positions = vec![0usize; BATCH_CHUNK * k];
        for chunk in items.chunks(BATCH_CHUNK) {
            for (j, item) in chunk.iter().enumerate() {
                let key = self.family.prepare(item.as_ref());
                for (i, slot) in positions[j * k..(j + 1) * k].iter_mut().enumerate() {
                    let pos = shbf_hash::range_reduce(key.index(i), self.m);
                    *slot = pos;
                    self.bits.prefetch(pos);
                }
            }
            for j in 0..chunk.len() {
                let mut mask = full;
                for &pos in &positions[j * k..(j + 1) * k] {
                    mask &= self.bits.read_window(pos, self.sets);
                    if mask == 0 {
                        break;
                    }
                }
                out.push(mask);
            }
        }
    }

    /// Batched membership view: true iff the item is possibly in *any*
    /// set — the server's `MQUERY` path for multiset namespaces.
    pub fn contains_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<bool>) {
        let mut masks = Vec::new();
        self.query_batch_into(items, &mut masks);
        out.clear();
        out.extend(masks.iter().map(|&m| m != 0));
    }

    /// Number of set bits in the on-chip mirror.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Physical length of the on-chip mirror in bits.
    pub fn physical_bits(&self) -> usize {
        self.bits.len()
    }

    /// Consistency check: bit mirror must equal "counter nonzero".
    pub fn check_sync(&self) -> usize {
        (0..self.bits.len())
            .filter(|&i| self.bits.get(i) != (self.counters.get(i) != 0))
            .count()
    }

    /// Serializes the filter: parameters, counters, and the authoritative
    /// mask table (the bit mirror is rebuilt on load).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = shbf_bits::Writer::new(CSHBF_MS_KIND);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u64(self.sets as u64)
            .u32(self.counters.width())
            .u8(self.family.kind().tag())
            .u64(self.master_seed)
            .counter_array(&self.counters);
        // Sort for a canonical encoding: equal filters serialize
        // identically regardless of hash-map iteration order.
        let mut entries: Vec<(&Vec<u8>, u64)> = self.table.iter().map(|(k, &v)| (k, v)).collect();
        entries.sort();
        w.u64(entries.len() as u64);
        for (key, mask) in entries {
            w.bytes(key);
            w.u64(mask);
        }
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = shbf_bits::Reader::new(blob, CSHBF_MS_KIND)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let sets = r.u64()? as usize;
        let counter_bits = r.u32()?;
        let family = FamilyKind::from_tag(r.u8()?).ok_or(ShbfError::Codec(
            shbf_bits::CodecError::InvalidField("hash family"),
        ))?;
        let seed = r.u64()?;
        let counters = r.counter_array()?;
        let physical = Self::physical_slots(m, k, sets, counter_bits)?;
        crate::geometry::expect_size(counters.len(), physical, "counter array size")?;
        crate::geometry::expect_size(counters.width(), counter_bits, "counter width")?;
        let len = r.u64()?;
        let valid = if sets == 64 {
            u64::MAX
        } else {
            (1u64 << sets) - 1
        };
        let mut table = FnvHashMap::default();
        let mut pairs = 0;
        for _ in 0..len {
            let key = r.bytes()?.to_vec();
            let mask = r.u64()?;
            if mask == 0 || mask & !valid != 0 {
                return Err(ShbfError::Codec(shbf_bits::CodecError::InvalidField(
                    "set mask",
                )));
            }
            pairs += u64::from(mask.count_ones());
            table.insert(key, mask);
        }
        r.expect_end()?;
        let bits = counters.nonzero_bits()?;
        Ok(CShbfMs {
            table,
            pairs,
            ..Self::from_parts(counters, bits, m, k, sets, family, seed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u8, i: u64) -> Vec<u8> {
        let mut v = vec![tag];
        v.extend_from_slice(&i.to_le_bytes());
        v
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut f = CShbfMs::new(20_000, 8, 8, 7).unwrap();
        for i in 0..400u64 {
            f.insert(&key(1, i), (i % 8) as usize).unwrap();
        }
        for i in 0..400u64 {
            let mask = f.query(&key(1, i));
            assert_ne!(mask & (1 << (i % 8)), 0, "false negative for {i}");
        }
        for i in 0..200u64 {
            f.remove(&key(1, i), (i % 8) as usize).unwrap();
        }
        for i in 200..400u64 {
            assert_ne!(f.query(&key(1, i)) & (1 << (i % 8)), 0, "survivor {i}");
        }
        assert_eq!(f.pairs(), 200);
        assert_eq!(f.check_sync(), 0);
    }

    #[test]
    fn multi_membership_per_key() {
        let mut f = CShbfMs::new(10_000, 8, 16, 3).unwrap();
        let e = key(2, 1);
        f.insert(&e, 3).unwrap();
        f.insert(&e, 11).unwrap();
        let mask = f.query(&e);
        assert_ne!(mask & (1 << 3), 0);
        assert_ne!(mask & (1 << 11), 0);
        assert_eq!(f.remove(&e, 3).unwrap(), 1 << 11);
        assert_ne!(f.query(&e) & (1 << 11), 0, "sibling membership lost");
        assert_eq!(f.remove(&e, 11).unwrap(), 0);
        assert_eq!(f.query(&e), 0);
        assert_eq!(f.keys(), 0);
        assert_eq!(f.check_sync(), 0);
    }

    #[test]
    fn insert_is_idempotent_and_remove_checks_membership() {
        let mut f = CShbfMs::new(5000, 8, 4, 9).unwrap();
        let e = key(3, 7);
        assert!(f.insert(&e, 2).unwrap());
        assert!(!f.insert(&e, 2).unwrap());
        assert_eq!(f.pairs(), 1);
        assert_eq!(f.remove(&e, 2).unwrap(), 0);
        assert_eq!(f.remove(&e, 2), Err(ShbfError::NotFound));
        assert_eq!(f.remove(b"nope", 0), Err(ShbfError::NotFound));
        assert_eq!(f.check_sync(), 0);
    }

    #[test]
    fn set_id_bounds_are_enforced() {
        let mut f = CShbfMs::new(5000, 8, 4, 9).unwrap();
        assert!(f.insert(b"x", 4).is_err());
        assert!(f.remove(b"x", 4).is_err());
        assert!(CShbfMs::new(5000, 8, 1, 9).is_err());
        assert!(CShbfMs::new(5000, 8, 58, 9).is_err());
        assert!(CShbfMs::new(5000, 8, 57, 9).is_ok());
    }

    #[test]
    fn batch_matches_scalar() {
        let mut f = CShbfMs::new(40_000, 8, 12, 5).unwrap();
        for i in 0..1000u64 {
            f.insert(&key(1, i), (i % 12) as usize).unwrap();
        }
        let probes: Vec<Vec<u8>> = (0..1500u64).map(|i| key(1, i)).collect();
        let batch = f.query_batch(&probes);
        let mut bools = Vec::new();
        f.contains_batch_into(&probes, &mut bools);
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(batch[i], f.query(probe), "probe {i}");
            assert_eq!(bools[i], batch[i] != 0);
        }
    }

    #[test]
    fn serialization_roundtrips_canonically() {
        let mut f = CShbfMs::with_family(20_000, 8, 10, 4, FamilyKind::OneShot, 11).unwrap();
        for i in 0..500u64 {
            f.insert(&key(4, i), (i % 10) as usize).unwrap();
            if i % 3 == 0 {
                f.insert(&key(4, i), ((i + 5) % 10) as usize).unwrap();
            }
        }
        let blob = f.to_bytes();
        let g = CShbfMs::from_bytes(&blob).unwrap();
        assert_eq!(g.keys(), f.keys());
        assert_eq!(g.pairs(), f.pairs());
        for i in 0..700u64 {
            assert_eq!(f.query(&key(4, i)), g.query(&key(4, i)), "key {i}");
        }
        // Canonical: a restored filter re-serializes byte-identically.
        assert_eq!(g.to_bytes(), blob);
        assert!(CShbfMs::from_bytes(&blob[..blob.len() - 2]).is_err());
    }

    #[test]
    fn per_set_fpr_stays_bloom_like() {
        let mut f = CShbfMs::new(80_000, 8, 8, 13).unwrap();
        for i in 0..2000u64 {
            f.insert(&key(1, i), (i % 8) as usize).unwrap();
        }
        // Probe absent keys; each set's false-positive rate should stay
        // well under 1% at this load factor.
        let mut fp = 0u64;
        let probes = 4000u64;
        for i in 0..probes {
            fp += u64::from(f.query(&key(9, i)).count_ones());
        }
        let per_set = fp as f64 / (probes * 8) as f64;
        assert!(per_set < 0.01, "per-set FPR {per_set:.4}");
    }
}
