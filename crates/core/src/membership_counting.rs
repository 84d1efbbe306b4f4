//! CShBF_M — the counting version of ShBF_M for element deletion (§3.3).
//!
//! Just as CBF replaces BF's bits with counters, CShBF_M replaces each bit of
//! ShBF_M with a `z`-bit counter. The paper's deployment model: the bit
//! array `B` lives in fast SRAM and serves queries; the counter array `C`
//! lives in DRAM and serves updates; after each update `C` is synchronized
//! to `B` (clear a bit when its counter reaches 0). This type maintains both
//! arrays with incremental synchronization and can export the query-only
//! [`crate::ShbfM`]-equivalent bit array via [`CShbfM::snapshot`].
//!
//! Counter-side single-access updates require `w̄ ≤ ⌊(w − 7)/z⌋` (§3.3) —
//! 14 for 4-bit counters on 64-bit words — which is the default `w̄` here;
//! the FPR cost of the smaller window is given by Theorem 1 and explored in
//! the `ablation_wbar` bench.

use shbf_bits::access::MemoryModel;
use shbf_bits::{AccessStats, BitArray, CounterArray};
use shbf_hash::{FamilyKind, HashAlg, PreparedKey, QueryFamily};

use crate::error::ShbfError;
use crate::probe::{PairProbe, ProbeScratch};
use crate::traits::MembershipFilter;
use crate::BATCH_CHUNK;

/// Counting Shifting Bloom Filter for membership with updates.
///
/// ```
/// use shbf_core::CShbfM;
///
/// let mut filter = CShbfM::new(4096, 8, 1).unwrap();
/// filter.insert(b"session-42");
/// assert!(filter.contains(b"session-42"));
/// filter.delete(b"session-42").unwrap();
/// assert!(!filter.contains(b"session-42"));
///
/// // The SRAM-side query snapshot is a plain ShbfM.
/// filter.insert(b"session-43");
/// assert!(filter.snapshot().contains(b"session-43"));
/// ```
#[derive(Debug, Clone)]
pub struct CShbfM {
    /// DRAM-side counters (update path).
    counters: CounterArray,
    /// SRAM-side bit mirror (query path), kept in sync on every update.
    bits: BitArray,
    m: usize,
    k: usize,
    w_bar: usize,
    counter_bits: u32,
    family: QueryFamily,
    master_seed: u64,
    items: u64,
}

impl CShbfM {
    /// Default counter width `z` ("in most applications, 4 bits for a
    /// counter are enough", §3.3), used by [`Self::new`].
    pub const DEFAULT_COUNTER_BITS: u32 = 4;

    /// The single-access-update offset bound for the default counter
    /// width: `w̄ = ⌊(w − 7)/z⌋` (14 on 64-bit machines). Shared with
    /// wrappers (e.g. the sharded concurrent filter) so their geometry
    /// cannot drift from [`Self::new`]'s.
    pub fn default_w_bar() -> usize {
        MemoryModel::default().max_window() / Self::DEFAULT_COUNTER_BITS as usize
    }

    /// Creates a counting filter with the default counter width and the
    /// single-access update bound [`Self::default_w_bar`].
    pub fn new(m: usize, k: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(
            m,
            k,
            Self::default_w_bar(),
            Self::DEFAULT_COUNTER_BITS,
            HashAlg::Murmur3,
            seed,
        )
    }

    /// Fully parameterized constructor. `w_bar` is bounded by `w − 7` (the
    /// bit-array constraint); choose `w̄ ≤ ⌊(w − 7)/z⌋` to keep counter
    /// updates single-access as well.
    pub fn with_config(
        m: usize,
        k: usize,
        w_bar: usize,
        counter_bits: u32,
        alg: HashAlg,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        Self::with_family(m, k, w_bar, counter_bits, FamilyKind::Seeded(alg), seed)
    }

    /// [`Self::with_config`] generalized over the hash-family construction
    /// (pass [`FamilyKind::OneShot`] for digest-once hashing).
    pub fn with_family(
        m: usize,
        k: usize,
        w_bar: usize,
        counter_bits: u32,
        family: FamilyKind,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        let physical = Self::physical_slots(m, k, w_bar, counter_bits)?;
        let counters = CounterArray::try_new(physical, counter_bits)?;
        let bits = BitArray::try_new(physical)?;
        Ok(Self::from_parts(
            counters, bits, m, k, w_bar, family, seed, 0,
        ))
    }

    /// Validates the parameters and returns the physical array length
    /// `m + w̄ − 1` shared by the counters and the bit mirror.
    fn physical_slots(
        m: usize,
        k: usize,
        w_bar: usize,
        counter_bits: u32,
    ) -> Result<usize, ShbfError> {
        crate::geometry::check_counter_bits(counter_bits)?;
        crate::ShbfM::physical_bits(m, k, w_bar)
    }

    /// Assembles a filter around validated arrays of the same length.
    #[allow(clippy::too_many_arguments)]
    fn from_parts(
        counters: CounterArray,
        bits: BitArray,
        m: usize,
        k: usize,
        w_bar: usize,
        family: FamilyKind,
        seed: u64,
        items: u64,
    ) -> Self {
        CShbfM {
            counter_bits: counters.width(),
            counters,
            bits,
            m,
            k,
            w_bar,
            family: QueryFamily::new(family, seed, k / 2 + 1),
            master_seed: seed,
            items,
        }
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

    /// Offset bound `w̄`.
    #[inline]
    pub fn w_bar(&self) -> usize {
        self.w_bar
    }

    /// Counter width `z` in bits.
    #[inline]
    pub fn counter_bits(&self) -> u32 {
        self.counter_bits
    }

    /// Net elements currently represented (inserts − deletes).
    #[inline]
    pub fn items(&self) -> u64 {
        self.items
    }

    /// True when `w̄·z ≤ w − 7`, i.e. counter-pair updates are single-access.
    pub fn single_access_updates(&self) -> bool {
        self.w_bar * self.counter_bits as usize <= MemoryModel::default().max_window()
    }

    #[inline]
    fn pairs(&self) -> usize {
        self.k / 2
    }

    #[inline]
    fn offset_of(&self, key: &PreparedKey<'_>) -> usize {
        crate::probe::offset(key, self.pairs(), self.w_bar)
    }

    /// The query view of the bit mirror that the shared probe kernel reads.
    #[inline]
    pub fn probe(&self) -> PairProbe<'_> {
        PairProbe::new(&self.bits, &self.family, self.m, self.pairs(), self.w_bar)
    }

    /// Inserts an element: increments both counters of every pair and sets
    /// the mirror bits.
    pub fn insert(&mut self, item: &[u8]) {
        let key = self.family.prepare(item);
        let o = self.offset_of(&key);
        for i in 0..self.pairs() {
            let pos = shbf_hash::range_reduce(key.index(i), self.m);
            self.counters.inc(pos);
            self.counters.inc(pos + o);
            self.bits.set(pos);
            self.bits.set(pos + o);
        }
        self.items += 1;
    }

    /// Inserts every element of a batch through the two-stage pipeline:
    /// stage 1 hashes a [`BATCH_CHUNK`]-sized chunk and prefetches the
    /// counter and mirror words, stage 2 applies the updates.
    pub fn insert_batch<T: AsRef<[u8]>>(&mut self, items: &[T]) {
        let pairs = self.pairs();
        let mut positions = vec![0usize; BATCH_CHUNK * pairs];
        let mut offsets = [0usize; BATCH_CHUNK];
        for chunk in items.chunks(BATCH_CHUNK) {
            for (j, item) in chunk.iter().enumerate() {
                let key = self.family.prepare(item.as_ref());
                offsets[j] = self.offset_of(&key);
                for (i, slot) in positions[j * pairs..(j + 1) * pairs].iter_mut().enumerate() {
                    let pos = shbf_hash::range_reduce(key.index(i), self.m);
                    *slot = pos;
                    self.counters.prefetch(pos);
                    self.bits.prefetch(pos);
                }
            }
            for (j, &o) in offsets.iter().enumerate().take(chunk.len()) {
                for &pos in &positions[j * pairs..(j + 1) * pairs] {
                    self.counters.inc(pos);
                    self.counters.inc(pos + o);
                    self.bits.set(pos);
                    self.bits.set(pos + o);
                }
            }
            self.items += chunk.len() as u64;
        }
    }

    /// [`Self::insert`] with update-cost accounting: one counter-word write
    /// per pair when [`Self::single_access_updates`], two otherwise, plus
    /// one bit-mirror write per pair (reported separately as writes).
    pub fn insert_profiled(&mut self, item: &[u8], stats: &mut AccessStats) {
        let per_pair = if self.single_access_updates() { 1 } else { 2 };
        stats.record_hashes(self.family.computations_for(self.pairs() + 1) as u64);
        stats.record_writes(self.pairs() as u64 * per_pair);
        self.insert(item);
        stats.finish_op();
    }

    /// Deletes an element.
    ///
    /// Verifies first (against the counters) that all `k` positions are
    /// nonzero; if any is zero the element was provably never inserted and
    /// `Err(NotFound)` is returned **without modifying the filter** — the
    /// classic CBF corruption hazard is checked, not silently suffered.
    /// Deleting an element that was never inserted but collides on all
    /// positions is indistinguishable from a true delete (inherited CBF
    /// semantics).
    pub fn delete(&mut self, item: &[u8]) -> Result<(), ShbfError> {
        let key = self.family.prepare(item);
        let o = self.offset_of(&key);
        let positions: Vec<usize> = (0..self.pairs())
            .map(|i| shbf_hash::range_reduce(key.index(i), self.m))
            .collect();
        for &pos in &positions {
            if self.counters.get(pos) == 0 || self.counters.get(pos + o) == 0 {
                return Err(ShbfError::NotFound);
            }
        }
        for &pos in &positions {
            for idx in [pos, pos + o] {
                if let Some(0) = self.counters.dec(idx) {
                    self.bits.clear(idx);
                }
            }
        }
        self.items = self.items.saturating_sub(1);
        Ok(())
    }

    /// Membership query against the SRAM-side bit mirror (fast path,
    /// identical cost profile to [`crate::ShbfM`]).
    #[inline]
    pub fn contains(&self, item: &[u8]) -> bool {
        self.probe().contains(item)
    }

    /// Queries a batch against the bit mirror, one verdict per element in
    /// order, via the staged early-exit kernel (see
    /// [`crate::ShbfM::contains_batch`]).
    pub fn contains_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<bool> {
        let mut out = Vec::with_capacity(items.len());
        self.contains_batch_into(items, &mut out);
        out
    }

    /// [`Self::contains_batch`] writing into a caller-owned buffer
    /// (cleared first), sparing the reply-buffer allocation per batch. The
    /// kernel's stage buffers are allocated per call; see
    /// [`Self::contains_batch_with`] to reuse them.
    pub fn contains_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<bool>) {
        self.contains_batch_with(items, out, &mut ProbeScratch::default());
    }

    /// [`Self::contains_batch_into`] with caller-owned stage buffers, so a
    /// caller that keeps both allocates nothing per batch in steady state.
    pub fn contains_batch_with<T: AsRef<[u8]>>(
        &self,
        items: &[T],
        out: &mut Vec<bool>,
        scratch: &mut ProbeScratch,
    ) {
        let probe = self.probe();
        crate::probe::contains_batch(items, |_| probe, out, scratch);
    }

    /// [`Self::contains`] with accounting (see
    /// [`crate::ShbfM::contains_profiled`]).
    pub fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        self.probe().contains_profiled(item, stats)
    }

    /// Number of set bits in the on-chip mirror.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Physical length of the on-chip mirror in bits (`m + w̄ − 1`).
    pub fn physical_bits(&self) -> usize {
        self.bits.len()
    }

    /// Verifies that the bit mirror equals "counter nonzero" everywhere —
    /// the invariant incremental synchronization maintains. Returns the
    /// number of mismatching positions (0 when consistent).
    pub fn check_sync(&self) -> usize {
        (0..self.bits.len())
            .filter(|&i| self.bits.get(i) != (self.counters.get(i) != 0))
            .count()
    }

    /// Rebuilds the bit mirror from the counters (full resynchronization, as
    /// after recovering `C` from DRAM).
    pub fn resync(&mut self) {
        self.bits.reset();
        for i in 0..self.counters.len() {
            if self.counters.get(i) != 0 {
                self.bits.set(i);
            }
        }
    }

    /// Serializes the counting filter (parameters + counters; the bit
    /// mirror is rebuilt on load, which doubles as a consistency check).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = shbf_bits::Writer::new(crate::kind::CSHBF_M);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u64(self.w_bar as u64)
            .u32(self.counter_bits)
            .u8(self.family.kind().tag())
            .u64(self.master_seed)
            .u64(self.items)
            .counter_array(&self.counters);
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = shbf_bits::Reader::new(blob, crate::kind::CSHBF_M)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let w_bar = r.u64()? as usize;
        let counter_bits = r.u32()?;
        let family = FamilyKind::from_tag(r.u8()?).ok_or(ShbfError::Codec(
            shbf_bits::CodecError::InvalidField("hash family"),
        ))?;
        let seed = r.u64()?;
        let items = r.u64()?;
        let counters = r.counter_array()?;
        r.expect_end()?;
        let physical = Self::physical_slots(m, k, w_bar, counter_bits)?;
        crate::geometry::expect_size(counters.len(), physical, "counter array size")?;
        crate::geometry::expect_size(counters.width(), counter_bits, "counter width")?;
        let bits = counters.nonzero_bits()?;
        Ok(Self::from_parts(
            counters, bits, m, k, w_bar, family, seed, items,
        ))
    }

    /// Exports the SRAM-side array as a standalone blob compatible with
    /// [`crate::ShbfM::from_bytes`] — the paper's "store B in SRAM for queries".
    pub fn snapshot(&self) -> crate::ShbfM {
        crate::ShbfM::from_parts(
            self.m,
            self.k,
            self.w_bar,
            self.master_seed,
            self.family.clone(),
            self.bits.clone(),
            self.items,
        )
    }
}

impl MembershipFilter for CShbfM {
    fn insert(&mut self, item: &[u8]) {
        CShbfM::insert(self, item);
    }

    fn contains(&self, item: &[u8]) -> bool {
        CShbfM::contains(self, item)
    }

    fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        CShbfM::contains_profiled(self, item, stats)
    }

    fn bit_size(&self) -> usize {
        // Query path size: the bit mirror (counters live "in DRAM").
        self.bits.len()
    }

    fn kind_name(&self) -> &'static str {
        "CShBF_M"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: usize, tag: u8) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut v = vec![tag];
                v.extend_from_slice(&(i as u64).to_le_bytes());
                v
            })
            .collect()
    }

    #[test]
    fn insert_then_delete_restores_empty_state() {
        let mut f = CShbfM::new(5000, 8, 3).unwrap();
        let set = items(300, 1);
        for it in &set {
            f.insert(it);
        }
        for it in &set {
            assert!(f.contains(it));
        }
        for it in &set {
            f.delete(it).unwrap();
        }
        assert_eq!(f.items(), 0);
        assert_eq!(f.check_sync(), 0);
        // Every bit cleared again.
        for it in &set {
            assert!(!f.contains(it), "stale positive after full deletion");
        }
    }

    #[test]
    fn delete_of_absent_element_is_detected_and_harmless() {
        let mut f = CShbfM::new(5000, 8, 3).unwrap();
        f.insert(b"present");
        let before = f.clone();
        assert_eq!(
            f.delete(b"never-inserted-element"),
            Err(ShbfError::NotFound)
        );
        assert_eq!(f.check_sync(), before.check_sync());
        assert!(f.contains(b"present"));
        assert_eq!(f.items(), 1);
    }

    #[test]
    fn duplicate_inserts_need_matching_deletes() {
        let mut f = CShbfM::new(1000, 4, 9).unwrap();
        f.insert(b"dup");
        f.insert(b"dup");
        f.delete(b"dup").unwrap();
        assert!(f.contains(b"dup"), "one copy must remain");
        f.delete(b"dup").unwrap();
        assert!(!f.contains(b"dup"));
    }

    #[test]
    fn default_w_bar_allows_single_access_updates() {
        let f = CShbfM::new(1000, 8, 1).unwrap();
        assert_eq!(f.w_bar(), 14);
        assert!(f.single_access_updates());
        let wide = CShbfM::with_config(1000, 8, 57, 4, HashAlg::Murmur3, 1).unwrap();
        assert!(!wide.single_access_updates());
    }

    #[test]
    fn profiled_update_costs_match_paper() {
        // §3.3: one update of CShBF_M needs only k/2 memory accesses.
        let mut f = CShbfM::new(10_000, 8, 5).unwrap();
        let mut stats = AccessStats::new();
        f.insert_profiled(b"elem", &mut stats);
        assert_eq!(stats.word_writes, 4); // k/2 = 4 single-access pair updates
        assert_eq!(stats.hash_computations, 5); // k/2 + 1
    }

    #[test]
    fn resync_matches_incremental_sync() {
        let mut f = CShbfM::new(2000, 6, 11).unwrap();
        for it in items(150, 2) {
            f.insert(&it);
        }
        for it in items(50, 2) {
            f.delete(&it).unwrap();
        }
        let incremental = f.bits.clone();
        f.resync();
        assert_eq!(f.bits, incremental);
    }

    #[test]
    fn snapshot_is_query_equivalent() {
        let mut f = CShbfM::with_config(3000, 6, 14, 4, HashAlg::Murmur3, 21).unwrap();
        let set = items(200, 3);
        for it in &set {
            f.insert(it);
        }
        let snap = f.snapshot();
        for it in &set {
            assert!(snap.contains(it));
        }
        for it in items(500, 4) {
            assert_eq!(snap.contains(&it), f.contains(&it));
        }
    }

    #[test]
    fn serialization_roundtrip_preserves_update_capability() {
        let mut f = CShbfM::new(4000, 6, 33).unwrap();
        let set = items(250, 5);
        for it in &set {
            f.insert(it);
        }
        let g = CShbfM::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(g.items(), 250);
        assert_eq!(g.check_sync(), 0);
        for it in &set {
            assert!(g.contains(it));
        }
        // Deletion still works after a roundtrip.
        let mut g = g;
        for it in &set {
            g.delete(it).unwrap();
        }
        assert!(set.iter().all(|it| !g.contains(it)));
    }

    #[test]
    fn deserialization_rejects_corruption() {
        let mut f = CShbfM::new(1000, 4, 1).unwrap();
        f.insert(b"x");
        let mut blob = f.to_bytes();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x10;
        assert!(CShbfM::from_bytes(&blob).is_err());
    }

    #[test]
    fn counter_saturation_does_not_break_membership() {
        // 1-bit counters saturate instantly; membership must still hold.
        let mut f = CShbfM::with_config(500, 4, 10, 1, HashAlg::Murmur3, 2).unwrap();
        for _ in 0..5 {
            f.insert(b"hot");
        }
        assert!(f.contains(b"hot"));
        assert!(f.counters.saturations() > 0);
    }
}
