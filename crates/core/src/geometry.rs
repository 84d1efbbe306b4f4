//! Checked array geometry, shared by every structure's constructor and
//! decoder.
//!
//! A constructor validates its parameters, computes the physical array
//! sizes with checked arithmetic, and only then allocates. A decoder runs
//! the same validation on the parameters a blob *declares* and compares
//! the result with the arrays the blob actually holds (whose sizes the
//! codec already bounded by the blob's length) before it builds anything.
//! So a blob that declares `m = 10¹⁵` is an error, not an allocation.

use shbf_bits::{AllocError, CodecError};

use crate::error::ShbfError;

/// Largest `k` (or sketch depth `d`) any structure accepts. Each position
/// costs a derived hash seed and a probe on every operation; the paper's
/// optimal `k` is a few tens at most.
pub const MAX_K: usize = 1024;

/// Rejects `k > MAX_K` (the baseline filters share the bound).
pub fn check_k(k: usize) -> Result<(), ShbfError> {
    if k > MAX_K {
        Err(ShbfError::KTooLarge { k, max: MAX_K })
    } else {
        Ok(())
    }
}

/// Rejects counter widths outside `[1, 32]`.
pub(crate) fn check_counter_bits(z: u32) -> Result<(), ShbfError> {
    if (1..=32).contains(&z) {
        Ok(())
    } else {
        Err(ShbfError::CounterBitsOutOfRange(z))
    }
}

/// `m + pad` physical slots, or an error when the sum overflows.
pub(crate) fn physical(m: usize, pad: usize) -> Result<usize, ShbfError> {
    m.checked_add(pad)
        .ok_or(ShbfError::Alloc(AllocError::OVERFLOW))
}

/// Fails with `what` unless a decoded size equals the declared one.
pub(crate) fn expect_size<T: PartialEq>(
    decoded: T,
    declared: T,
    what: &'static str,
) -> Result<(), ShbfError> {
    if decoded == declared {
        Ok(())
    } else {
        Err(ShbfError::Codec(CodecError::InvalidField(what)))
    }
}
