//! CShBF_× — updatable multiplicity filter (paper §5.3).
//!
//! Updating must keep the invariant "one element is always encoded at exactly
//! one multiplicity": inserting `e` whose current count is `z` first deletes
//! the z-th encoding and then inserts the (z+1)-th. The paper gives two ways
//! to learn `z`:
//!
//! * [`UpdatePolicy::FilterDerived`] (§5.3.1): query the filter itself. If
//!   that query was a false positive, the deletion decrements *wrong*
//!   counters and can zero a bit other elements rely on — **false negatives
//!   become possible**. Cheap (no per-element state), but unsound.
//! * [`UpdatePolicy::ExactTable`] (§5.3.2, Fig. 5): keep an off-chip hash
//!   table of exact counts; `z` is always correct and the structure stays
//!   false-negative-free.
//!
//! Both policies maintain the counter array (off-chip `C`) and the bit
//! mirror (on-chip `B`) exactly as Fig. 5 describes.

use shbf_bits::{AccessStats, BitArray, CounterArray};
use shbf_hash::fnv::FnvHashMap;
use shbf_hash::{FamilyKind, HashAlg, QueryFamily};

use crate::error::ShbfError;
use crate::multiplicity::MultiplicityAnswer;
use crate::traits::CountEstimator;
use crate::BATCH_CHUNK;

/// How [`CShbfX`] determines an element's current multiplicity on update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Query the filter (§5.3.1): no per-element state, but false positives
    /// during updates can later cause false negatives.
    FilterDerived,
    /// Keep an exact off-chip count table (§5.3.2): false-negative-free.
    ExactTable,
}

/// Counting / updatable Shifting Bloom Filter for multiplicity queries.
///
/// ```
/// use shbf_core::CShbfX;
///
/// let mut counter = CShbfX::new(4096, 8, 57, 1).unwrap();
/// assert_eq!(counter.insert(b"flow").unwrap(), 1);
/// assert_eq!(counter.insert(b"flow").unwrap(), 2);
/// assert_eq!(counter.query(b"flow").reported, 2);
/// assert_eq!(counter.delete(b"flow").unwrap(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CShbfX {
    counters: CounterArray,
    bits: BitArray,
    table: FnvHashMap<Vec<u8>, u64>,
    policy: UpdatePolicy,
    m: usize,
    k: usize,
    c: usize,
    family: QueryFamily,
    master_seed: u64,
}

impl CShbfX {
    /// Creates an empty filter with the exact-table policy and 8-bit
    /// counters.
    pub fn new(m: usize, k: usize, c: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(m, k, c, UpdatePolicy::ExactTable, 8, HashAlg::Murmur3, seed)
    }

    /// Fully parameterized constructor.
    pub fn with_config(
        m: usize,
        k: usize,
        c: usize,
        policy: UpdatePolicy,
        counter_bits: u32,
        alg: HashAlg,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        Self::with_family(m, k, c, policy, counter_bits, FamilyKind::Seeded(alg), seed)
    }

    /// [`Self::with_config`] generalized over the hash-family construction
    /// (pass [`FamilyKind::OneShot`] for digest-once hashing).
    pub fn with_family(
        m: usize,
        k: usize,
        c: usize,
        policy: UpdatePolicy,
        counter_bits: u32,
        family: FamilyKind,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        let physical = Self::physical_slots(m, k, c)?;
        crate::geometry::check_counter_bits(counter_bits)?;
        let counters = CounterArray::try_new(physical, counter_bits)?;
        let bits = BitArray::try_new(physical)?;
        Ok(Self::from_parts(
            counters, bits, policy, m, k, c, family, seed,
        ))
    }

    /// Validates the parameters and returns the physical array length
    /// `m + c − 1` shared by the counters and the bit mirror.
    fn physical_slots(m: usize, k: usize, c: usize) -> Result<usize, ShbfError> {
        if m == 0 {
            return Err(ShbfError::ZeroSize("m"));
        }
        if k == 0 {
            return Err(ShbfError::KZero);
        }
        crate::geometry::check_k(k)?;
        if c == 0 {
            return Err(ShbfError::ZeroSize("c"));
        }
        crate::geometry::physical(m, c - 1)
    }

    /// Assembles a filter with an empty count table around validated
    /// arrays of the same length.
    #[allow(clippy::too_many_arguments)]
    fn from_parts(
        counters: CounterArray,
        bits: BitArray,
        policy: UpdatePolicy,
        m: usize,
        k: usize,
        c: usize,
        family: FamilyKind,
        seed: u64,
    ) -> Self {
        CShbfX {
            counters,
            bits,
            table: FnvHashMap::default(),
            policy,
            m,
            k,
            c,
            family: QueryFamily::new(family, seed, k),
            master_seed: seed,
        }
    }

    /// The update policy in force.
    #[inline]
    pub fn policy(&self) -> UpdatePolicy {
        self.policy
    }

    /// Maximum multiplicity `c`.
    #[inline]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Number of distinct elements tracked (exact-table policy only; 0
    /// otherwise).
    pub fn tracked_elements(&self) -> usize {
        self.table.len()
    }

    /// Exact multiplicity of `item` from the off-chip table — ground
    /// truth under [`UpdatePolicy::ExactTable`] (the filter's answer can
    /// only diverge upward, i.e. a false positive). `None` under
    /// [`UpdatePolicy::FilterDerived`], which keeps no per-element state.
    pub fn ground_truth(&self, item: &[u8]) -> Option<u64> {
        match self.policy {
            UpdatePolicy::ExactTable => Some(self.table.get(item).copied().unwrap_or(0)),
            UpdatePolicy::FilterDerived => None,
        }
    }

    /// All `k` positions of one key, hashed once (digest-once families pay
    /// a single base-hash pass here).
    #[inline]
    fn positions_into(&self, item: &[u8], out: &mut [usize]) {
        let key = self.family.prepare(item);
        for (i, slot) in out.iter_mut().enumerate().take(self.k) {
            *slot = shbf_hash::range_reduce(key.index(i), self.m);
        }
    }

    /// Current multiplicity of `item` according to the update policy.
    fn current_count(&self, item: &[u8]) -> u64 {
        match self.policy {
            UpdatePolicy::ExactTable => self.table.get(item).copied().unwrap_or(0),
            UpdatePolicy::FilterDerived => self.query(item).reported,
        }
    }

    /// Encodes multiplicity `z` (1-based): increments counters and sets bits
    /// at `h_i + z − 1`.
    fn encode(&mut self, item: &[u8], z: u64) {
        let off = (z - 1) as usize;
        let key = self.family.prepare(item);
        for i in 0..self.k {
            let idx = shbf_hash::range_reduce(key.index(i), self.m) + off;
            self.counters.inc(idx);
            self.bits.set(idx);
        }
    }

    /// Removes the encoding of multiplicity `z`: decrements counters, clears
    /// bits whose counter reaches 0 (Fig. 5, steps 2–3).
    fn unencode(&mut self, item: &[u8], z: u64) {
        let off = (z - 1) as usize;
        let key = self.family.prepare(item);
        for i in 0..self.k {
            let idx = shbf_hash::range_reduce(key.index(i), self.m) + off;
            if let Some(0) = self.counters.dec(idx) {
                self.bits.clear(idx);
            }
        }
    }

    /// Inserts one occurrence of `item`; returns the new multiplicity.
    ///
    /// Errors with [`ShbfError::CountOutOfRange`] if the element already has
    /// multiplicity `c`.
    pub fn insert(&mut self, item: &[u8]) -> Result<u64, ShbfError> {
        let z = self.current_count(item);
        if z >= self.c as u64 {
            return Err(ShbfError::CountOutOfRange {
                count: z + 1,
                max: self.c as u64,
            });
        }
        if z > 0 {
            self.unencode(item, z);
        }
        self.encode(item, z + 1);
        if self.policy == UpdatePolicy::ExactTable {
            *self.table.entry(item.to_vec()).or_insert(0) = z + 1;
        }
        Ok(z + 1)
    }

    /// Deletes one occurrence of `item`; returns the new multiplicity.
    ///
    /// Errors with [`ShbfError::NotFound`] if the element is absent.
    pub fn delete(&mut self, item: &[u8]) -> Result<u64, ShbfError> {
        let z = self.current_count(item);
        if z == 0 {
            return Err(ShbfError::NotFound);
        }
        self.unencode(item, z);
        if z > 1 {
            self.encode(item, z - 1);
        }
        if self.policy == UpdatePolicy::ExactTable {
            if z > 1 {
                self.table.insert(item.to_vec(), z - 1);
            } else {
                self.table.remove(item);
            }
        }
        Ok(z - 1)
    }

    /// Multiplicity query against the on-chip bit mirror — same semantics as
    /// [`crate::ShbfX::query`].
    pub fn query(&self, item: &[u8]) -> MultiplicityAnswer {
        let words = self.c.div_ceil(64);
        let mut acc = vec![u64::MAX; words];
        let tail = self.c % 64;
        if tail != 0 {
            acc[words - 1] = (1u64 << tail) - 1;
        }
        let key = self.family.prepare(item);
        for i in 0..self.k {
            let pos = shbf_hash::range_reduce(key.index(i), self.m);
            let mut any = 0u64;
            for (j, slot) in acc.iter_mut().enumerate() {
                let width = (self.c - j * 64).min(64);
                let win = self.bits.read_window(pos + j * 64, width);
                *slot &= win;
                any |= *slot;
            }
            if any == 0 {
                break;
            }
        }
        let mut candidates = Vec::new();
        for j in 0..self.c {
            if (acc[j / 64] >> (j % 64)) & 1 == 1 {
                candidates.push(j as u64 + 1);
            }
        }
        let reported = candidates.last().copied().unwrap_or(0);
        MultiplicityAnswer {
            candidates,
            reported,
        }
    }

    /// Batched membership view against the bit mirror (`reported > 0` per
    /// element, in input order) via the prefetched two-stage pipeline — the
    /// server's `MQUERY` path for multiplicity namespaces.
    pub fn contains_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<bool> {
        let mut out = Vec::with_capacity(items.len());
        self.contains_batch_into(items, &mut out);
        out
    }

    /// [`Self::contains_batch`] writing into a caller-owned buffer (cleared
    /// first), sparing the reply-buffer allocation per batch (the pipeline's
    /// small fixed stage buffers are still allocated per call).
    pub fn contains_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(items.len());
        let k = self.k;
        let window_words = self.c.div_ceil(64);
        let mut positions = vec![0usize; BATCH_CHUNK * k];
        let mut acc = vec![0u64; window_words];
        for chunk in items.chunks(BATCH_CHUNK) {
            for (j, item) in chunk.iter().enumerate() {
                self.positions_into(item.as_ref(), &mut positions[j * k..(j + 1) * k]);
                for &pos in &positions[j * k..(j + 1) * k] {
                    for w in 0..window_words {
                        self.bits.prefetch(pos + w * 64);
                    }
                }
            }
            for j in 0..chunk.len() {
                out.push(self.any_candidate_at(&positions[j * k..(j + 1) * k], &mut acc));
            }
        }
    }

    /// True iff ANDing the k windows at the given positions leaves any
    /// candidate alive (`acc` is reusable scratch).
    fn any_candidate_at(&self, positions: &[usize], acc: &mut [u64]) -> bool {
        let words = self.c.div_ceil(64);
        acc[..words].fill(u64::MAX);
        let tail = self.c % 64;
        if tail != 0 {
            acc[words - 1] = (1u64 << tail) - 1;
        }
        for &pos in positions {
            let mut any = 0u64;
            for (j, slot) in acc[..words].iter_mut().enumerate() {
                let width = (self.c - j * 64).min(64);
                *slot &= self.bits.read_window(pos + j * 64, width);
                any |= *slot;
            }
            if any == 0 {
                return false;
            }
        }
        true
    }

    /// Number of set bits in the on-chip mirror.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Physical length of the on-chip mirror in bits (`m + c − 1`).
    pub fn physical_bits(&self) -> usize {
        self.bits.len()
    }

    /// Consistency check between bit mirror and counters.
    pub fn check_sync(&self) -> usize {
        (0..self.bits.len())
            .filter(|&i| self.bits.get(i) != (self.counters.get(i) != 0))
            .count()
    }

    /// Serializes the filter: parameters, counters, and — under the
    /// exact-table policy — the off-chip count table (Fig. 5's full state).
    /// The bit mirror is rebuilt on load.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = shbf_bits::Writer::new(CSHBF_X_KIND);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u64(self.c as u64)
            .u8(match self.policy {
                UpdatePolicy::FilterDerived => 0,
                UpdatePolicy::ExactTable => 1,
            })
            .u8(self.family.kind().tag())
            .u64(self.master_seed)
            .counter_array(&self.counters)
            .u64(self.table.len() as u64);
        // Deterministic order so equal filters serialize identically.
        let mut entries: Vec<(&Vec<u8>, &u64)> = self.table.iter().collect();
        entries.sort();
        for (key, count) in entries {
            w.bytes(key).u64(*count);
        }
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = shbf_bits::Reader::new(blob, CSHBF_X_KIND)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let c = r.u64()? as usize;
        let policy = match r.u8()? {
            0 => UpdatePolicy::FilterDerived,
            1 => UpdatePolicy::ExactTable,
            _ => {
                return Err(ShbfError::Codec(shbf_bits::CodecError::InvalidField(
                    "policy",
                )))
            }
        };
        let family = FamilyKind::from_tag(r.u8()?).ok_or(ShbfError::Codec(
            shbf_bits::CodecError::InvalidField("hash family"),
        ))?;
        let seed = r.u64()?;
        let counters = r.counter_array()?;
        let physical = Self::physical_slots(m, k, c)?;
        crate::geometry::expect_size(counters.len(), physical, "counter array size")?;
        let entries = r.u64()?;
        let mut table = FnvHashMap::default();
        for _ in 0..entries {
            let key = r.bytes()?.to_vec();
            let count = r.u64()?;
            if count == 0 || count > c as u64 {
                return Err(ShbfError::Codec(shbf_bits::CodecError::InvalidField(
                    "table count",
                )));
            }
            table.insert(key, count);
        }
        r.expect_end()?;
        let bits = counters.nonzero_bits()?;
        Ok(CShbfX {
            table,
            ..Self::from_parts(counters, bits, policy, m, k, c, family, seed)
        })
    }
}

/// Serialization kind tag for [`CShbfX`].
const CSHBF_X_KIND: u16 = 7;

impl CountEstimator for CShbfX {
    fn estimate(&self, item: &[u8]) -> u64 {
        self.query(item).reported
    }

    fn estimate_profiled(&self, item: &[u8], stats: &mut AccessStats) -> u64 {
        let model = shbf_bits::access::MemoryModel::default();
        stats.record_hashes(self.k as u64);
        stats.record_reads(self.k as u64 * model.accesses_for_window(self.c));
        stats.finish_op();
        self.query(item).reported
    }

    fn bit_size(&self) -> usize {
        self.bits.len()
    }

    fn kind_name(&self) -> &'static str {
        "CShBF_X"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        let mut v = vec![0x11];
        v.extend_from_slice(&i.to_le_bytes());
        v
    }

    #[test]
    fn contains_batch_matches_scalar_query() {
        let mut f = CShbfX::new(20_000, 8, 57, 5).unwrap();
        for i in 0..600u64 {
            for _ in 0..(i % 5 + 1) {
                f.insert(&key(i)).unwrap();
            }
        }
        let probes: Vec<Vec<u8>> = (0..1200u64).map(key).collect();
        let batch = f.contains_batch(&probes);
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(batch[i], f.query(probe).reported > 0, "probe {i}");
        }
    }

    #[test]
    fn one_shot_family_updates_and_roundtrips() {
        let mut f = CShbfX::with_family(
            20_000,
            8,
            57,
            UpdatePolicy::ExactTable,
            8,
            FamilyKind::OneShot,
            5,
        )
        .unwrap();
        for i in 0..200u64 {
            f.insert(&key(i)).unwrap();
            f.insert(&key(i)).unwrap();
        }
        for i in 0..100u64 {
            f.delete(&key(i)).unwrap();
        }
        let g = CShbfX::from_bytes(&f.to_bytes()).unwrap();
        for i in 0..300u64 {
            assert_eq!(f.query(&key(i)), g.query(&key(i)), "key {i}");
        }
        assert_eq!(g.check_sync(), 0);
    }

    #[test]
    fn insert_delete_tracks_counts_exactly() {
        let mut f = CShbfX::new(20_000, 8, 57, 5).unwrap();
        let e = key(1);
        assert_eq!(f.insert(&e).unwrap(), 1);
        assert_eq!(f.insert(&e).unwrap(), 2);
        assert_eq!(f.insert(&e).unwrap(), 3);
        assert_eq!(f.query(&e).reported, 3);
        assert_eq!(f.delete(&e).unwrap(), 2);
        assert_eq!(f.query(&e).reported, 2);
        assert_eq!(f.delete(&e).unwrap(), 1);
        assert_eq!(f.delete(&e).unwrap(), 0);
        assert_eq!(f.query(&e).reported, 0);
        assert_eq!(f.delete(&e), Err(ShbfError::NotFound));
        assert_eq!(f.check_sync(), 0);
    }

    #[test]
    fn one_encoding_per_element_invariant() {
        // Regardless of how many times e was inserted, exactly k counters
        // are nonzero for it (single multiplicity encoding).
        let mut f = CShbfX::new(50_000, 8, 57, 7).unwrap();
        let e = key(9);
        for _ in 0..30 {
            f.insert(&e).unwrap();
        }
        let nonzero = f.counters.count_nonzero();
        assert_eq!(
            nonzero, f.k,
            "expected k = {} nonzero counters, got {nonzero}",
            f.k
        );
    }

    #[test]
    fn respects_max_multiplicity() {
        let mut f = CShbfX::new(1000, 4, 3, 5).unwrap();
        let e = key(2);
        f.insert(&e).unwrap();
        f.insert(&e).unwrap();
        f.insert(&e).unwrap();
        assert!(matches!(
            f.insert(&e).unwrap_err(),
            ShbfError::CountOutOfRange { count: 4, max: 3 }
        ));
        assert_eq!(f.query(&e).reported, 3);
    }

    #[test]
    fn exact_table_policy_has_no_false_negatives_under_churn() {
        let mut f = CShbfX::new(8_000, 6, 20, 3).unwrap();
        let mut truth: std::collections::HashMap<u64, u64> = Default::default();
        // Deterministic churn.
        for round in 0..2000u64 {
            let id = round % 300;
            let e = key(id);
            if round % 7 == 3 && truth.get(&id).copied().unwrap_or(0) > 0 {
                f.delete(&e).unwrap();
                *truth.get_mut(&id).unwrap() -= 1;
            } else if truth.get(&id).copied().unwrap_or(0) < 20 {
                f.insert(&e).unwrap();
                *truth.entry(id).or_insert(0) += 1;
            }
        }
        for (id, count) in &truth {
            if *count > 0 {
                let reported = f.query(&key(*id)).reported;
                assert!(
                    reported >= *count,
                    "id {id}: reported {reported} < true {count}"
                );
            }
        }
        assert_eq!(f.check_sync(), 0);
    }

    #[test]
    fn filter_derived_policy_matches_exact_when_no_fps() {
        // In a sparse filter the FilterDerived policy behaves identically.
        let mut a = CShbfX::with_config(
            50_000,
            8,
            10,
            UpdatePolicy::FilterDerived,
            8,
            HashAlg::Murmur3,
            9,
        )
        .unwrap();
        let mut b = CShbfX::new(50_000, 8, 10, 9).unwrap();
        for i in 0..50 {
            let e = key(i);
            for _ in 0..(i % 5 + 1) {
                a.insert(&e).unwrap();
                b.insert(&e).unwrap();
            }
        }
        for i in 0..50 {
            let e = key(i);
            assert_eq!(a.query(&e).reported, b.query(&e).reported, "element {i}");
        }
        assert_eq!(a.tracked_elements(), 0);
        assert_eq!(b.tracked_elements(), 50);
    }

    #[test]
    fn serialization_preserves_counts_and_updates() {
        let mut f = CShbfX::new(20_000, 8, 57, 5).unwrap();
        for i in 0..300u64 {
            let e = key(i);
            for _ in 0..(i % 9 + 1) {
                f.insert(&e).unwrap();
            }
        }
        let blob = f.to_bytes();
        let mut g = CShbfX::from_bytes(&blob).unwrap();
        assert_eq!(g.check_sync(), 0);
        assert_eq!(g.tracked_elements(), 300);
        for i in 0..300u64 {
            assert_eq!(g.query(&key(i)).reported, f.query(&key(i)).reported, "{i}");
        }
        // Updates continue correctly after a roundtrip.
        let e = key(5);
        let before = g.query(&e).reported;
        g.insert(&e).unwrap();
        assert_eq!(g.query(&e).reported, before + 1);
        // Identical state serializes identically (deterministic table order).
        let h = CShbfX::from_bytes(&blob).unwrap();
        assert_eq!(h.to_bytes(), blob);
    }

    #[test]
    fn corrupted_blob_rejected() {
        let mut f = CShbfX::new(1000, 4, 10, 1).unwrap();
        f.insert(&key(1)).unwrap();
        let mut blob = f.to_bytes();
        let mid = blob.len() / 3;
        blob[mid] ^= 0x40;
        assert!(CShbfX::from_bytes(&blob).is_err());
    }

    #[test]
    fn many_elements_roundtrip() {
        let mut f = CShbfX::new(60_000, 8, 57, 21).unwrap();
        for i in 0..1500u64 {
            let e = key(i);
            for _ in 0..(i % 57 + 1) {
                f.insert(&e).unwrap();
            }
        }
        let mut exact = 0;
        for i in 0..1500u64 {
            if f.query(&key(i)).reported == i % 57 + 1 {
                exact += 1;
            }
        }
        // Eq. 28 predicts a high exact rate at this load factor.
        assert!(exact > 1350, "exact {exact}/1500");
    }
}
