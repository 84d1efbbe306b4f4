//! Sharded counting filter: concurrent membership **with deletion**.
//!
//! A counting update touches `k` counters read-modify-write, which cannot
//! be made lock-free without per-counter CAS loops that destroy the
//! single-access-per-pair property the paper optimizes for (§3.3). Instead
//! the element space is partitioned by an independent shard hash into `S`
//! sub-filters, each behind its own `parking_lot::RwLock`: operations on
//! different shards proceed in parallel; queries on the same shard share a
//! read lock.
//!
//! Lock order and hold time: a single-key operation locks one shard for
//! that operation. A batch insert write-locks one shard at a time, for
//! that shard's group of keys. A batch query read-locks every shard it
//! touches, in ascending shard index, and holds them all until the batch
//! is answered. As no thread ever waits for a shard below one it holds,
//! no wait cycle can form, even with `std`'s writer-preferring lock (a
//! waiting writer stalls new readers of its shard).
//!
//! Each shard is a complete [`CShbfM`] with `m/S` logical bits, so the
//! per-shard load factor — and therefore the FPR formula of Theorem 1 —
//! is unchanged in expectation.

use parking_lot::{RwLock, RwLockReadGuard};
use shbf_core::{CShbfM, ProbeScratch, ShbfError};
use shbf_hash::{murmur3::murmur3_x64_128, range_reduce, FamilyKind};

/// Serialization kind tag (core claims 1–8; the sharded wrapper takes 9).
const SHARDED_CSHBF_M_KIND: u16 = 9;

/// Reusable scratch for the batch paths. One scratch per connection or
/// worker turns steady-state batches into a zero-allocation path (the
/// buffers grow to the high-water mark and stay). It lends out read
/// guards during a query batch, so it is not `Send`: keep it on the
/// thread that uses it.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Query batches: each key's shard index.
    shard_ids: Vec<usize>,
    /// Query batches: which shards the batch touches.
    touched: Vec<bool>,
    /// Query batches: allocation of the per-shard read guards, kept empty
    /// between batches. During a batch it holds one guard per touched
    /// shard (`None` for the rest), taken in ascending shard index and
    /// released together when the batch is answered (the guards borrow
    /// the filter; see [`crate::recycle`]).
    guards: Vec<Option<RwLockReadGuard<'static, CShbfM>>>,
    /// Query batches: the probe kernel's stage buffers.
    probe: ProbeScratch,
    /// Insert batches: indexes of the batch's keys, grouped by shard.
    by_shard: Vec<Vec<usize>>,
    /// Insert batches: allocation of one shard's key list, kept empty
    /// between batches (the list borrows the batch's keys).
    shard_keys: Vec<&'static [u8]>,
}

/// A sharded counting ShBF_M.
pub struct ShardedCShbfM {
    shards: Vec<RwLock<CShbfM>>,
    shard_seed: u64,
}

impl std::fmt::Debug for ShardedCShbfM {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCShbfM")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedCShbfM {
    /// Creates a filter of `m` total logical bits split over `shards`
    /// sub-filters, each with `k` nominal hash positions.
    pub fn new(m: usize, k: usize, shards: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_family(
            m,
            k,
            shards,
            FamilyKind::Seeded(shbf_hash::HashAlg::Murmur3),
            seed,
        )
    }

    /// [`Self::new`] generalized over the per-shard hash-family construction
    /// (pass [`FamilyKind::OneShot`] for digest-once hashing). Shard
    /// geometry matches [`CShbfM::new`]'s defaults: 4-bit counters and the
    /// single-access-update bound `w̄ = ⌊(w − 7)/4⌋`.
    pub fn with_family(
        m: usize,
        k: usize,
        shards: usize,
        family: FamilyKind,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        if shards == 0 {
            return Err(ShbfError::ZeroSize("shards"));
        }
        let w_bar = CShbfM::default_w_bar();
        let z = CShbfM::DEFAULT_COUNTER_BITS;
        let per_shard = (m / shards).max(64);
        let shards = (0..shards)
            .map(|s| {
                CShbfM::with_family(per_shard, k, w_bar, z, family, seed.wrapping_add(s as u64))
                    .map(RwLock::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedCShbfM {
            shards,
            shard_seed: seed ^ 0x5348_4152_4421, // "SHARD!"
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, item: &[u8]) -> usize {
        let (h, _) = murmur3_x64_128(item, self.shard_seed);
        range_reduce(h, self.shards.len())
    }

    /// Inserts an element (write lock on one shard).
    pub fn insert(&self, item: &[u8]) {
        self.shards[self.shard_of(item)].write().insert(item);
    }

    /// Deletes an element (write lock on one shard). Same semantics as
    /// [`CShbfM::delete`]: provably-absent deletes are rejected unchanged.
    pub fn delete(&self, item: &[u8]) -> Result<(), ShbfError> {
        self.shards[self.shard_of(item)].write().delete(item)
    }

    /// Membership query (read lock on one shard).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.shards[self.shard_of(item)].read().contains(item)
    }

    /// Net items across all shards.
    pub fn items(&self) -> u64 {
        self.shards.iter().map(|s| s.read().items()).sum()
    }

    /// Per-shard geometry `(m, k, w̄)` — identical across shards.
    pub fn shard_params(&self) -> (usize, usize, usize) {
        let s = self.shards[0].read();
        (s.m(), s.k(), s.w_bar())
    }

    /// Set bits summed over all shards' on-chip mirrors.
    pub fn count_ones(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().count_ones() as u64)
            .sum()
    }

    /// Physical mirror bits summed over all shards.
    pub fn physical_bits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().physical_bits() as u64)
            .sum()
    }

    /// Batched membership query through the staged early-exit kernel of
    /// [`shbf_core::probe`], answers in input order.
    ///
    /// The batch runs as **one** pipeline across shards. First every key
    /// is hashed to its shard, and each touched shard is read-locked once,
    /// in ascending shard index; the guards are held until the whole
    /// batch is answered. Lock traffic is `O(shards touched)` instead of
    /// `O(keys)`, and the keys of every shard overlap their cache misses
    /// in the same chunks. Writers ([`Self::insert`], [`Self::delete`],
    /// [`Self::insert_batch`]) hold one shard's write lock at a time, and
    /// a batch only ever waits for a shard above every shard it holds, so
    /// no wait cycle can form, even under `std`'s writer-preferring lock.
    /// A writer on a touched shard waits for at most one batch.
    pub fn contains_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<bool> {
        let mut out = Vec::new();
        let mut scratch = BatchScratch::default();
        self.contains_batch_with(items, &mut out, &mut scratch);
        out
    }

    /// [`Self::contains_batch`] with caller-owned output and scratch
    /// buffers, so a connection handler serving a stream of `MQUERY`
    /// batches allocates nothing in steady state.
    pub fn contains_batch_with<T: AsRef<[u8]>>(
        &self,
        items: &[T],
        out: &mut Vec<bool>,
        scratch: &mut BatchScratch,
    ) {
        let shard_ids = &mut scratch.shard_ids;
        shard_ids.clear();
        shard_ids.extend(items.iter().map(|item| self.shard_of(item.as_ref())));
        let touched = &mut scratch.touched;
        touched.clear();
        touched.resize(self.shards.len(), false);
        for &shard in shard_ids.iter() {
            touched[shard] = true;
        }
        // Ascending shard order: the lock order that keeps concurrent
        // batches deadlock-free.
        let mut guards: Vec<Option<RwLockReadGuard<'_, CShbfM>>> =
            std::mem::take(&mut scratch.guards);
        guards.extend(
            self.shards
                .iter()
                .zip(touched.iter())
                .map(|(lock, &hit)| hit.then(|| lock.read())),
        );
        let probe_of = |i: usize| {
            guards[shard_ids[i]]
                .as_deref()
                .expect("every key's shard is locked")
                .probe()
        };
        shbf_core::probe::contains_batch(items, probe_of, out, &mut scratch.probe);
        scratch.guards = crate::recycle(guards);
    }

    /// Batched insert: keys are grouped by shard so each shard's **write**
    /// lock is taken once per batch instead of once per key, and each
    /// group runs through [`CShbfM::insert_batch`]'s two-stage prefetched
    /// pipeline (hash + prefetch the counter/mirror words for a chunk,
    /// then apply the updates). This is the server's bulk-load path.
    pub fn insert_batch<T: AsRef<[u8]>>(&self, items: &[T]) {
        self.insert_batch_with(items, &mut BatchScratch::default());
    }

    /// [`Self::insert_batch`] with caller-owned shard-grouping scratch (the
    /// query buffers are untouched; each shard's insert pipeline still
    /// allocates its own stage buffer). One shard's write lock is held at
    /// a time.
    pub fn insert_batch_with<T: AsRef<[u8]>>(&self, items: &[T], scratch: &mut BatchScratch) {
        let by_shard = &mut scratch.by_shard;
        by_shard.resize(self.shards.len(), Vec::new());
        for group in by_shard.iter_mut() {
            group.clear();
        }
        for (i, item) in items.iter().enumerate() {
            by_shard[self.shard_of(item.as_ref())].push(i);
        }
        let mut keys: Vec<&[u8]> = std::mem::take(&mut scratch.shard_keys);
        for (shard, indexes) in by_shard.iter().enumerate() {
            if indexes.is_empty() {
                continue;
            }
            keys.clear();
            keys.extend(indexes.iter().map(|&i| items[i].as_ref()));
            self.shards[shard].write().insert_batch(&keys);
        }
        scratch.shard_keys = crate::recycle(keys);
    }

    /// Serializes the filter: shard hash seed plus every shard's
    /// [`CShbfM`] blob, wrapped in the workspace codec envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = shbf_bits::Writer::new(SHARDED_CSHBF_M_KIND);
        w.u64(self.shard_seed).u64(self.shards.len() as u64);
        for shard in &self.shards {
            w.bytes(&shard.read().to_bytes());
        }
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = shbf_bits::Reader::new(blob, SHARDED_CSHBF_M_KIND)?;
        let shard_seed = r.u64()?;
        let count = r.u64()?;
        if count == 0 {
            return Err(ShbfError::ZeroSize("shards"));
        }
        // Every shard takes at least its 8-byte length prefix, so a count
        // the remaining bytes cannot hold is refused before it sizes the
        // vector.
        if count > (r.remaining() / 8) as u64 {
            return Err(shbf_bits::CodecError::InvalidField("shard count").into());
        }
        let mut shards = Vec::with_capacity(count as usize);
        for _ in 0..count {
            shards.push(RwLock::new(CShbfM::from_bytes(r.bytes()?)?));
        }
        r.expect_end()?;
        Ok(ShardedCShbfM { shards, shard_seed })
    }

    /// Largest relative deviation of any shard's item count from the mean —
    /// a load-balance health metric (should stay within a few percent for
    /// uniform shard hashing).
    pub fn shard_imbalance(&self) -> f64 {
        let counts: Vec<f64> = self
            .shards
            .iter()
            .map(|s| s.read().items() as f64)
            .collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        counts
            .iter()
            .map(|c| (c - mean).abs() / mean)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(i: u64) -> [u8; 8] {
        i.to_le_bytes()
    }

    #[test]
    fn basic_insert_query_delete() {
        let f = ShardedCShbfM::new(80_000, 8, 8, 7).unwrap();
        for i in 0..3000 {
            f.insert(&key(i));
        }
        for i in 0..3000 {
            assert!(f.contains(&key(i)));
        }
        for i in 0..1500 {
            f.delete(&key(i)).unwrap();
        }
        for i in 1500..3000 {
            assert!(f.contains(&key(i)), "survivor {i} lost");
        }
        assert_eq!(f.items(), 1500);
    }

    #[test]
    fn batch_agrees_with_single_queries() {
        let f = ShardedCShbfM::new(120_000, 8, 8, 5).unwrap();
        for i in 0..4000 {
            f.insert(&key(i));
        }
        let probes: Vec<[u8; 8]> = (0..8000).map(key).collect();
        let batch = f.contains_batch(&probes);
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(batch[i], f.contains(probe), "probe {i}");
        }
        assert!(batch[..4000].iter().all(|&b| b), "false negative in batch");
    }

    #[test]
    fn batch_scratch_reuse_is_consistent() {
        let f = ShardedCShbfM::new(120_000, 8, 8, 5).unwrap();
        for i in 0..4000 {
            f.insert(&key(i));
        }
        let mut out = Vec::new();
        let mut scratch = BatchScratch::default();
        // Several batches through the same scratch, including an empty one.
        for range in [0..2000u64, 1000..5000, 0..0, 3999..4001] {
            let probes: Vec<[u8; 8]> = range.map(key).collect();
            f.contains_batch_with(&probes, &mut out, &mut scratch);
            assert_eq!(out.len(), probes.len());
            for (i, probe) in probes.iter().enumerate() {
                assert_eq!(out[i], f.contains(probe), "probe {i}");
            }
        }
    }

    #[test]
    fn insert_batch_agrees_with_scalar_inserts() {
        let a = ShardedCShbfM::new(120_000, 8, 8, 5).unwrap();
        let b = ShardedCShbfM::new(120_000, 8, 8, 5).unwrap();
        let keys: Vec<[u8; 8]> = (0..4000).map(key).collect();
        for k in &keys {
            a.insert(k);
        }
        let mut scratch = BatchScratch::default();
        // Two batches through one scratch, including an empty one.
        b.insert_batch_with(&keys[..1000], &mut scratch);
        b.insert_batch_with(&[] as &[[u8; 8]], &mut scratch);
        b.insert_batch_with(&keys[1000..], &mut scratch);
        assert_eq!(a.items(), b.items());
        // Same shard routing + same per-shard pipeline → identical blobs.
        assert_eq!(a.to_bytes(), b.to_bytes());
        // Deletes still balance: batch-inserted keys delete cleanly.
        for k in &keys {
            b.delete(k).unwrap();
        }
        assert_eq!(b.items(), 0);
    }

    #[test]
    fn one_shot_family_shards_roundtrip() {
        let f = ShardedCShbfM::with_family(80_000, 8, 4, FamilyKind::OneShot, 21).unwrap();
        for i in 0..2000 {
            f.insert(&key(i));
        }
        for i in 0..2000 {
            assert!(f.contains(&key(i)), "one-shot sharded lost {i}");
        }
        let g = ShardedCShbfM::from_bytes(&f.to_bytes()).unwrap();
        for i in 0..4000 {
            assert_eq!(f.contains(&key(i)), g.contains(&key(i)), "key {i}");
        }
        g.delete(&key(0)).unwrap();
        assert_eq!(g.items(), 1999);
    }

    #[test]
    fn serialization_roundtrips() {
        let f = ShardedCShbfM::new(80_000, 8, 4, 21).unwrap();
        for i in 0..2000 {
            f.insert(&key(i));
        }
        let blob = f.to_bytes();
        let g = ShardedCShbfM::from_bytes(&blob).unwrap();
        assert_eq!(g.shards(), 4);
        assert_eq!(g.items(), 2000);
        for i in 0..2000 {
            assert!(g.contains(&key(i)), "restored filter lost {i}");
        }
        // Same shard hash → deletes still route correctly after reload.
        g.delete(&key(0)).unwrap();
        assert_eq!(g.items(), 1999);
        assert_eq!(g.to_bytes().len(), blob.len());
        assert!(ShardedCShbfM::from_bytes(&blob[..blob.len() - 2]).is_err());
    }

    #[test]
    fn shards_stay_balanced() {
        let f = ShardedCShbfM::new(160_000, 8, 16, 3).unwrap();
        for i in 0..32_000 {
            f.insert(&key(i));
        }
        let imbalance = f.shard_imbalance();
        assert!(imbalance < 0.15, "imbalance {imbalance:.3}");
    }

    #[test]
    fn concurrent_mixed_workload() {
        let f = Arc::new(ShardedCShbfM::new(400_000, 8, 16, 11).unwrap());
        // Phase 1: concurrent inserts of disjoint ranges.
        crossbeam::scope(|scope| {
            for t in 0..4u64 {
                let f = Arc::clone(&f);
                scope.spawn(move |_| {
                    for i in (t * 8000)..((t + 1) * 8000) {
                        f.insert(&key(i));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(f.items(), 32_000);

        // Phase 2: two threads delete their ranges while two others verify
        // untouched ranges continuously.
        crossbeam::scope(|scope| {
            for t in 0..2u64 {
                let f = Arc::clone(&f);
                scope.spawn(move |_| {
                    for i in (t * 8000)..((t + 1) * 8000) {
                        f.delete(&key(i)).unwrap();
                    }
                });
            }
            for t in 2..4u64 {
                let f = Arc::clone(&f);
                scope.spawn(move |_| {
                    for i in (t * 8000)..((t + 1) * 8000) {
                        assert!(f.contains(&key(i)), "untouched key {i} lost mid-churn");
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(f.items(), 16_000);
        for i in 16_000..32_000 {
            assert!(f.contains(&key(i)));
        }
    }
}
