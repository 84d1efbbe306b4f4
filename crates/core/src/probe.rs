//! The ShBF_M query kernel, scalar and batched, shared by [`crate::ShbfM`],
//! [`crate::CShbfM`] and the sharded concurrent filter built on the latter.
//!
//! A query probes at most `k/2` bit pairs, one memory access each, and
//! stops at the first pair that is not fully set (§3.2). A random
//! non-member fails its first pair with probability about `1 − fill²`, so
//! most negatives cost one offset hash, one position hash and one access.
//! The batch kernel keeps that early exit while overlapping the cache
//! misses of many keys; per [`BATCH_CHUNK`] keys it runs three stages:
//!
//! 1. hash each key's offset and pair 1, prefetch that pair;
//! 2. probe pair 1 of every key; only the survivors hash and prefetch
//!    pairs `2..=k/2`;
//! 3. probe the survivors' remaining pairs, stopping at the first zero
//!    pair.
//!
//! A batch may span several filters (the shards of a sharded filter): the
//! caller maps each key's index to the [`PairProbe`] that answers it, so
//! one pipeline runs across all of them and answers land in input order.

use shbf_bits::{AccessStats, BitArray};
use shbf_hash::{PreparedKey, QueryFamily};

use crate::BATCH_CHUNK;

/// What a membership query reads of one ShBF_M-geometry filter: the bit
/// array, the hash family and the geometry. Cheap to copy; each `shbf-m`
/// structure hands out its own (see [`crate::CShbfM::probe`]).
#[derive(Debug, Clone, Copy)]
pub struct PairProbe<'a> {
    bits: &'a BitArray,
    family: &'a QueryFamily,
    /// Logical array size: pair positions are `h % m`.
    m: usize,
    /// Pairs per key (`k/2`).
    pairs: usize,
    /// Offset bound: offsets lie in `[1, w̄ − 1]`.
    w_bar: usize,
}

impl<'a> PairProbe<'a> {
    #[inline]
    pub(crate) fn new(
        bits: &'a BitArray,
        family: &'a QueryFamily,
        m: usize,
        pairs: usize,
        w_bar: usize,
    ) -> Self {
        PairProbe {
            bits,
            family,
            m,
            pairs,
            w_bar,
        }
    }

    #[inline]
    fn offset(&self, key: &PreparedKey<'_>) -> usize {
        offset(key, self.pairs, self.w_bar)
    }

    /// The first bit of pair `i`.
    #[inline]
    fn position(&self, key: &PreparedKey<'_>, i: usize) -> usize {
        shbf_hash::range_reduce(key.index(i), self.m)
    }

    /// Membership query: short-circuits on the first zero pair (§3.2).
    /// The key is hashed at most once end to end under a one-shot family,
    /// at most `k/2 + 1` times under a seeded family (the paper's
    /// accounting).
    #[inline]
    pub(crate) fn contains(&self, item: &[u8]) -> bool {
        let key = self.family.prepare(item);
        let o = self.offset(&key);
        (0..self.pairs).all(|i| self.bits.pair_all_set(self.position(&key, i), o))
    }

    /// [`Self::contains`] with access/hash accounting: one word read per
    /// probed pair, and hash computations per the family's cost model
    /// (seeded: one per probed pair plus the offset hash; one-shot: a
    /// single digest for the whole query).
    pub(crate) fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        stats.record_hashes(self.family.probe_cost(0)); // offset hash first
        let key = self.family.prepare(item);
        let o = self.offset(&key);
        let mut result = true;
        for i in 0..self.pairs {
            stats.record_hashes(self.family.probe_cost(i + 1));
            stats.record_reads(1);
            if !self.bits.pair_all_set(self.position(&key, i), o) {
                result = false;
                break;
            }
        }
        stats.finish_op();
        result
    }
}

/// The offset `o(e) ∈ [1, w̄ − 1]` of a key with `pairs` pairs (§3.1:
/// `o(e) ≠ 0`, otherwise the two bits of a pair would coincide). It is the
/// family's member `k/2`; inserts and deletes use it too.
#[inline]
pub(crate) fn offset(key: &PreparedKey<'_>, pairs: usize, w_bar: usize) -> usize {
    shbf_hash::range_reduce(key.index(pairs), w_bar - 1) + 1
}

/// One key of the chunk in flight: its prepared key, pair 1's position and
/// its offset.
#[derive(Debug, Clone, Copy)]
struct Staged<'a> {
    key: PreparedKey<'a>,
    first: usize,
    offset: usize,
}

/// Reusable stage buffers of [`contains_batch`]. A caller that keeps one
/// (and its output buffer) between batches allocates nothing once both
/// are warm.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// The chunk's keys, kept empty between calls (the entries borrow the
    /// batch's keys; see [`crate::recycle`]).
    staged: Vec<Staged<'static>>,
    /// Positions of the survivors' pairs `2..=k/2`, survivor by survivor:
    /// at most `BATCH_CHUNK × (k/2 − 1)` of them.
    rest: Vec<usize>,
}

/// Answers a batch of membership queries into `out` (cleared first), one
/// verdict per key in input order, each equal to the scalar query
/// (`contains`) of the filter `probe_of(index)` views.
///
/// `probe_of` maps a key's index in `items` to the filter that answers it
/// and is called once per key per stage, so it should be a cheap lookup.
pub fn contains_batch<'a, T: AsRef<[u8]>>(
    items: &[T],
    probe_of: impl Fn(usize) -> PairProbe<'a>,
    out: &mut Vec<bool>,
    scratch: &mut ProbeScratch,
) {
    out.clear();
    out.reserve(items.len());
    let mut staged: Vec<Staged<'_>> = std::mem::take(&mut scratch.staged);
    let rest = &mut scratch.rest;
    for (c, chunk) in items.chunks(BATCH_CHUNK).enumerate() {
        let base = c * BATCH_CHUNK;
        // Stage 1: offset and pair 1, prefetched.
        staged.clear();
        for (j, item) in chunk.iter().enumerate() {
            let p = probe_of(base + j);
            let key = p.family.prepare(item.as_ref());
            let offset = p.offset(&key);
            let first = p.position(&key, 0);
            p.bits.prefetch_pair(first, offset);
            staged.push(Staged { key, first, offset });
        }
        // Stage 2: probe pair 1. Every key writes a survivor slot and only
        // a hit keeps it, so collecting the survivors does not branch on
        // the verdict, which a filter probe would mispredict. Then the
        // survivors hash and prefetch their other pairs.
        let mut survivors = [0usize; BATCH_CHUNK];
        let mut n = 0;
        for (j, s) in staged.iter().enumerate() {
            let p = probe_of(base + j);
            let hit = p.bits.pair_all_set(s.first, s.offset);
            out.push(hit);
            survivors[n] = j;
            n += usize::from(hit & (p.pairs > 1));
        }
        let survivors = &survivors[..n];
        rest.clear();
        for &j in survivors {
            let (p, s) = (probe_of(base + j), &staged[j]);
            for i in 1..p.pairs {
                let pos = p.position(&s.key, i);
                p.bits.prefetch_pair(pos, s.offset);
                rest.push(pos);
            }
        }
        // Stage 3: the survivors' remaining pairs, exiting at a zero pair.
        let mut cursor = 0;
        for &j in survivors {
            let p = probe_of(base + j);
            let offset = staged[j].offset;
            let positions = &rest[cursor..cursor + p.pairs - 1];
            cursor += p.pairs - 1;
            out[base + j] = positions
                .iter()
                .all(|&pos| p.bits.pair_all_set(pos, offset));
        }
    }
    scratch.staged = crate::recycle(staged);
}
