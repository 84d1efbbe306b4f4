//! The allocator's huge-page advice, observed from the kernel's side: a
//! touched 64 MiB counter array must be (at least partly) backed by
//! transparent huge pages, as `/proc/self/smaps` reports them.
//!
//! Linux only. Skipped, with a message, when the host's THP mode is
//! `never` or the host has no THP support at all.

#![cfg(target_os = "linux")]

use shbf_bits::CounterArray;

/// The host's THP mode, e.g. `madvise`, or `None` without THP support.
fn thp_mode() -> Option<String> {
    let text = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()?;
    let start = text.find('[')? + 1;
    let end = start + text[start..].find(']')?;
    Some(text[start..end].to_string())
}

/// Sum of `AnonHugePages` (KiB) over every mapping of this process that
/// overlaps `[start, end)`. The advice splits one allocation into up to
/// three mappings (unadvised head, advised interior, unadvised tail), so
/// all of them are counted.
fn anon_huge_kib(start: usize, end: usize) -> u64 {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut overlaps = false;
    let mut total = 0;
    for line in smaps.lines() {
        let head = line.split_whitespace().next().unwrap_or("");
        if let Some((lo, hi)) = head.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                overlaps = lo < end && start < hi;
                continue;
            }
        }
        if let Some(kib) = line.strip_prefix("AnonHugePages:") {
            if overlaps {
                total += kib
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .unwrap();
            }
        }
    }
    total
}

#[test]
fn touched_64_mib_counter_array_is_backed_by_huge_pages() {
    match thp_mode().as_deref() {
        None => {
            eprintln!("skipped: this host has no transparent huge page support");
            return;
        }
        Some("never") => {
            eprintln!("skipped: transparent huge pages are set to `never`");
            return;
        }
        Some(_) => {}
    }
    // 2^27 four-bit counters: exactly 64 MiB of words.
    let mut counters = CounterArray::new(1 << 27, 4);
    assert_eq!(counters.byte_size(), 64 << 20);
    // Touch every 4 KiB page: 8192 counters per page.
    for i in (0..counters.len()).step_by(8192) {
        counters.set(i, 1);
    }
    let words = counters.as_words();
    let start = words.as_ptr() as usize;
    let kib = anon_huge_kib(start, start + counters.byte_size());
    assert!(
        kib > 0,
        "no AnonHugePages behind a touched 64 MiB counter array at {start:#x}"
    );
    eprintln!("AnonHugePages behind the array: {kib} kB of 65536 kB");
}
