//! The one allocator behind every filter array's word storage.
//!
//! `zeroed_words` allocates the words of every [`crate::BitArray`] and
//! [`crate::CounterArray`], whether a constructor creates them or the codec
//! decodes them ([`crate::Reader::words`]). A `2³⁰`-bit membership filter
//! is a 128 MiB bit mirror beside 512 MiB of counters, probed and updated
//! at hash-random words. On 4 KiB pages nearly every such access also
//! misses the TLB and pays a page walk. The allocator works in three steps:
//!
//! 1. `alloc_zeroed` over `Layout::array::<u64>(n)`. The request is
//!    checked for overflow and fallible, so a size the host cannot back is
//!    an [`AllocError`] rather than an abort. Blocks the C allocator serves
//!    with a fresh `mmap` are zeroed lazily by the kernel, not by a memset.
//! 2. `madvise(MADV_HUGEPAGE)` over the 2 MiB-aligned interior of the block
//!    (`huge_page_interior`). Nothing has written to the block yet, so
//!    the first touch of each advised 2 MiB extent faults in one huge page
//!    instead of 512 small ones.
//! 3. The block is handed over as the `Box<[u64]>` the array types hold.
//!
//! The advice is best effort. Its errors are ignored, it has no effect
//! when the host's transparent-huge-page mode is `never`, and it is a
//! no-op off Linux. A block of at most 2 MiB holds no whole aligned extent
//! and is never advised. There is no switch for any of this: the host's
//! THP setting already governs it.
//!
//! This module and [`crate::prefetch`] are the crate's only `unsafe` code.

#![allow(unsafe_code)]

use std::alloc::{alloc_zeroed, Layout};
use std::ops::Range;

/// Size and alignment of a transparent huge page (x86_64 and aarch64
/// with 4 KiB base pages).
pub(crate) const HUGE_PAGE: usize = 2 << 20;

/// A filter array's word storage could not be allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// Words requested, or `None` when the size overflowed before any
    /// allocation was attempted.
    pub words: Option<usize>,
}

impl AllocError {
    /// The error for a size that overflows `usize` (or `isize` in bytes).
    pub const OVERFLOW: AllocError = AllocError { words: None };
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.words {
            Some(n) => write!(
                f,
                "cannot allocate {} bytes of filter storage",
                n as u128 * 8
            ),
            None => f.write_str("filter storage size overflows the address space"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Allocates `n` zeroed words, advising the kernel to back their
/// 2 MiB-aligned interior with huge pages. `n = 0` returns an empty box
/// without allocating.
pub(crate) fn zeroed_words(n: usize) -> Result<Box<[u64]>, AllocError> {
    if n == 0 {
        return Ok(Box::default());
    }
    let layout = Layout::array::<u64>(n).map_err(|_| AllocError::OVERFLOW)?;
    // SAFETY: `layout` has a non-zero size, since `n > 0` and a `u64` is
    // 8 bytes.
    let ptr = unsafe { alloc_zeroed(layout) }.cast::<u64>();
    if ptr.is_null() {
        return Err(AllocError { words: Some(n) });
    }
    if let Some(interior) = huge_page_interior(ptr as usize, layout.size()) {
        advise_huge_pages(interior);
    }
    // SAFETY: `ptr` is a live block from the global allocator with
    // exactly `Layout::array::<u64>(n)`, the layout a `Box<[u64]>` of
    // length `n` is freed with. `alloc_zeroed` initialised all of it, and
    // an all-zero bit pattern is a valid `u64`. Ownership moves into the
    // box; nothing else holds the pointer.
    Ok(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, n)) })
}

/// The largest sub-range of the byte range `[addr, addr + len)` whose
/// start and end are both multiples of [`HUGE_PAGE`], or `None` when that
/// range holds no whole aligned extent (or its end overflows).
pub(crate) fn huge_page_interior(addr: usize, len: usize) -> Option<Range<usize>> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (start < end).then_some(start..end)
}

#[cfg(target_os = "linux")]
fn advise_huge_pages(range: Range<usize>) {
    use std::os::raw::{c_int, c_void};

    // <asm-generic/mman-common.h>
    const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    // SAFETY: `range` lies inside a block this module just allocated and
    // still owns, and its start is 2 MiB- (hence page-) aligned, as
    // `madvise` requires. `MADV_HUGEPAGE` changes only the paging policy
    // of the range: no byte's value or validity changes and no memory is
    // read or written through the pointer. The advice is best effort, so
    // its return value is ignored.
    unsafe {
        madvise(
            range.start as *mut c_void,
            range.end - range.start,
            MADV_HUGEPAGE,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(range: Range<usize>) {
    let _ = range;
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    #[test]
    fn interior_of_an_aligned_start_keeps_whole_extents() {
        let base = 64 * HUGE_PAGE;
        assert_eq!(
            huge_page_interior(base, 5 * MIB),
            Some(base..base + 4 * MIB)
        );
        assert_eq!(
            huge_page_interior(base, 4 * MIB),
            Some(base..base + 4 * MIB)
        );
    }

    #[test]
    fn interior_of_an_unaligned_start_rounds_inward() {
        let base = 64 * HUGE_PAGE + 16;
        assert_eq!(
            huge_page_interior(base, 6 * MIB),
            Some(base - 16 + HUGE_PAGE..base - 16 + 3 * HUGE_PAGE)
        );
    }

    #[test]
    fn interior_under_one_huge_page_is_empty() {
        assert_eq!(huge_page_interior(64 * HUGE_PAGE + 16, 2 * MIB - 1), None);
        assert_eq!(huge_page_interior(64 * HUGE_PAGE, 2 * MIB - 1), None);
        assert_eq!(huge_page_interior(64 * HUGE_PAGE + 4096, 2 * MIB), None);
        assert_eq!(huge_page_interior(0, 0), None);
    }

    #[test]
    fn interior_of_four_mib_plus_eight_bytes() {
        let len = 4 * MIB + 8;
        // Aligned start: two whole extents, the trailing word left out.
        let base = 64 * HUGE_PAGE;
        assert_eq!(huge_page_interior(base, len), Some(base..base + 4 * MIB));
        // A malloc-style 16-byte header offset: one whole extent.
        assert_eq!(
            huge_page_interior(base + 16, len),
            Some(base + HUGE_PAGE..base + 2 * HUGE_PAGE)
        );
    }

    #[test]
    fn interior_never_overflows() {
        assert_eq!(huge_page_interior(usize::MAX - 10, 100), None);
        assert_eq!(huge_page_interior(usize::MAX, 0), None);
    }

    #[test]
    fn zeroed_words_have_exact_length_and_zero_contents() {
        for n in [0usize, 1, 262_143, 262_144, 262_145, 1 << 23] {
            let words = zeroed_words(n).unwrap();
            assert_eq!(words.len(), n);
            assert!(words.iter().all(|&w| w == 0), "n = {n}");
        }
    }

    #[test]
    fn impossible_sizes_are_errors_not_aborts() {
        assert_eq!(zeroed_words(usize::MAX), Err(AllocError::OVERFLOW));
        assert_eq!(zeroed_words(usize::MAX / 8 + 1), Err(AllocError::OVERFLOW));
        // Representable but far beyond any host: the allocator refuses.
        let n = 1usize << 58;
        assert_eq!(zeroed_words(n), Err(AllocError { words: Some(n) }));
    }

    #[test]
    fn error_messages_name_the_size() {
        let e = AllocError {
            words: Some(1 << 40),
        };
        assert!(e.to_string().contains("8796093022208 bytes"), "{e}");
        assert!(AllocError::OVERFLOW.to_string().contains("overflows"));
    }
}
