//! # shbf-concurrent — multi-core serving for the ShBF framework
//!
//! The paper's target deployments (IP lookup, packet classification, §1.1)
//! process packets at wire speed, which on commodity hardware means one
//! filter shared by many cores. Two designs are provided:
//!
//! * [`ConcurrentShbfM`] / [`ConcurrentBf`] — **lock-free** insert/query
//!   over an atomic bit array. Bloom-style inserts are monotone ORs, so
//!   concurrent inserts race benignly; queries never lock. No deletion.
//! * [`ShardedCShbfM`] — counting filter partitioned into independently
//!   locked shards (parking_lot RwLock), supporting concurrent deletion at
//!   the cost of one lock acquisition per operation. The shard is chosen by
//!   an independent hash, so per-shard load balances and the FPR analysis
//!   applies within each shard unchanged.
//!
//! Guarantees: an element whose insert happened-before a query is always
//! found (no false negatives under concurrency); false-positive behaviour
//! is identical to the sequential structures at the same parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lockfree;
pub mod sharded;

pub use lockfree::{ConcurrentBf, ConcurrentShbfM};
pub use sharded::{BatchScratch, ShardedCShbfM};

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
