//! # shbf-bits — bit-level substrate for the Shifting Bloom Filter framework
//!
//! The ShBF paper's central trick is spatial: the existence bit `h(e)` and the
//! auxiliary bit `h(e) + o(e)` are at most `w̄ ≤ w − 7` bits apart, so on x86
//! (which can load a word starting at any *byte*) both live in a single w-bit
//! memory access (§3.1). This crate owns that layout:
//!
//! * [`BitArray`] — the m-bit array `B`, with padded tails (offsets never
//!   wrap) and windowed reads that model one memory access;
//! * [`CounterArray`] — the packed z-bit counter array `C` used by every
//!   counting variant (CShBF_M/A/×, CBF, Spectral BF);
//! * [`AccessStats`] + [`access`] — the paper's memory-access accounting
//!   (Figs. 8, 10(b), 11(b));
//! * [`codec`] — a versioned, CRC-checked binary format so filters can be
//!   persisted and shipped (what SRAM/DRAM synchronization would serialize);
//! * [`alloc`] — the one allocator behind both arrays' words: zeroed,
//!   fallible, and advised onto transparent huge pages.

// `deny` rather than `forbid`: the two sanctioned exceptions are the
// `prefetch` module's `_mm_prefetch` hint and the `alloc` module's
// zeroed allocation and `madvise` call. Both allow `unsafe` locally, with
// a SAFETY comment on each block. Everything else in the crate stays
// safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod alloc;
pub mod atomic;
pub mod bitarray;
pub mod codec;
pub mod counters;
pub mod crc;
pub mod prefetch;

pub use access::{AccessStats, MemoryModel, WORD_BITS};
pub use alloc::AllocError;
pub use atomic::AtomicBitArray;
pub use bitarray::BitArray;
pub use codec::{CodecError, Reader, Writer};
pub use counters::CounterArray;
pub use prefetch::prefetch_word;
