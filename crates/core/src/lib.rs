//! # shbf-core — the Shifting Bloom Filter framework (Yang et al., VLDB 2016)
//!
//! A set data structure must store, per element `e`, (1) **existence**
//! information and (2) **auxiliary** information — a counter, or which set
//! `e` belongs to. Prior Bloom-filter variants spend extra memory on (2);
//! the ShBF framework encodes it *in a location offset*: instead of (or in
//! addition to) setting bit `h_i(e) % m`, set `h_i(e) % m + o(e)` where the
//! offset `o(e)` carries the auxiliary information. Because
//! `o(e) < w̄ ≤ w − 7`, both bits sit in one machine word and cost a single
//! memory access (§1.2, Fig. 1).
//!
//! The three instantiations, each with a counting variant for updates:
//!
//! | Query | Type | Offset encodes | Paper |
//! |---|---|---|---|
//! | membership | [`ShbfM`] / [`CShbfM`] | nothing (halves hashes & accesses) | §3 |
//! | association | [`ShbfA`] / [`CShbfA`] | which of S1−S2 / S1∩S2 / S2−S1 | §4 |
//! | multiplicity | [`ShbfX`] / [`CShbfX`] | the element's count − 1 | §5 |
//!
//! Plus the generalized construction with `t` shifts per hash group
//! ([`GenShbfM`], §3.6) and the shifting count-min sketch ([`ScmSketch`],
//! §5.5).
//!
//! ```
//! use shbf_core::ShbfM;
//!
//! let mut filter = ShbfM::new(10_000, 8, 0xFEED).unwrap();
//! filter.insert(b"10.1.2.3:443->10.9.8.7:51234/tcp");
//! assert!(filter.contains(b"10.1.2.3:443->10.9.8.7:51234/tcp"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod association;
pub mod association_counting;
pub mod diagnostics;
pub mod error;
pub mod generalized;
mod geometry;
pub mod membership;
pub mod membership_counting;
pub mod multiplicity;
pub mod multiplicity_counting;
pub mod multiset;
pub mod probe;
pub mod scm;
pub mod traits;

pub use association::{AssociationAnswer, ShbfA, ShbfABuilder};
pub use association_counting::{CShbfA, SetId};
pub use error::ShbfError;
pub use generalized::GenShbfM;
pub use geometry::{check_k, MAX_K};
pub use membership::ShbfM;
pub use membership_counting::CShbfM;
pub use multiplicity::{MultiplicityAnswer, ShbfX};
pub use multiplicity_counting::{CShbfX, UpdatePolicy};
pub use multiset::CShbfMs;
pub use probe::{PairProbe, ProbeScratch};
pub use scm::ScmSketch;
pub use traits::{CountEstimator, MembershipFilter};

/// Chunk size of the staged batch pipelines (`contains_batch` & co.):
/// the keys of one chunk are hashed and their target words prefetched
/// before any of them is probed. 32 keys × `k/2` pairs keeps the staged
/// index block comfortably in L1 while giving the prefetcher a few
/// hundred cycles of lead time. For the `shbf-m` family (see [`probe`])
/// only the first pair is staged up front and the rest only for keys that
/// pass it. Chunking never shortens a lock's hold: the sharded filter
/// read-locks the shards a batch touches once, in ascending shard index,
/// and holds them across all of the batch's chunks.
pub const BATCH_CHUNK: usize = 32;

/// Empties `v` and hands its allocation back as a vector of another
/// element type of the same size and alignment — in practice the same
/// borrowed type at another lifetime. A scratch struct that outlives the
/// borrows keeps a `Vec<&'static T>`, lends it out as a `Vec<&'a T>` for
/// one call (plain covariance), and takes it back through here. The
/// collect reuses the allocation in place, so a round trip allocates
/// nothing.
pub fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| -> U { unreachable!() }).collect()
}

/// Serialization kind tags for the [`shbf_bits::codec`] format.
pub mod kind {
    /// [`crate::ShbfM`].
    pub const SHBF_M: u16 = 1;
    /// [`crate::ShbfA`].
    pub const SHBF_A: u16 = 2;
    /// [`crate::ShbfX`].
    pub const SHBF_X: u16 = 3;
    /// [`crate::CShbfM`].
    pub const CSHBF_M: u16 = 4;
    /// [`crate::GenShbfM`].
    pub const GEN_SHBF_M: u16 = 5;
    /// [`crate::ScmSketch`].
    pub const SCM: u16 = 6;
    /// Standard Bloom filter (shbf-baselines).
    pub const BF: u16 = 16;
    /// Counting Bloom filter (shbf-baselines).
    pub const CBF: u16 = 17;
    /// One-memory-access Bloom filter (shbf-baselines).
    pub const ONE_MEM_BF: u16 = 18;
    /// Kirsch–Mitzenmacher BF (shbf-baselines).
    pub const KM_BF: u16 = 19;
    /// Spectral BF (shbf-baselines).
    pub const SPECTRAL: u16 = 20;
    /// Count-min sketch (shbf-baselines).
    pub const CMS: u16 = 21;
    /// Cuckoo filter (shbf-baselines).
    pub const CUCKOO: u16 = 22;
}
