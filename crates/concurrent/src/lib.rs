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
//!   the cost of one lock acquisition per operation (a batch query takes
//!   one read lock per touched shard, in ascending shard index, for the
//!   whole batch). The shard is chosen by an independent hash, so
//!   per-shard load balances and the FPR analysis applies within each
//!   shard unchanged.
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

pub use shbf_core::recycle;
