//! Allocation regression test for the zero-copy read path.
//!
//! A counting global allocator (counted per thread, so the harness's own
//! threads never pollute a reading) pins down what each step of the read
//! path may allocate once its reusable buffers are warm:
//!
//! * the borrowed front-end, [`parse_request`], and the in-place key
//!   resolution the protocol session runs after it: nothing, for a
//!   `QUERY` and for a 64-key `MQUERY` of plain keys;
//! * the owned [`parse_command`] of `QUERY ns key`: exactly the namespace
//!   `String` and the key `Vec`;
//! * the sharded batch probe (3, 64 and 513 keys over 8 shards) and the
//!   engine's `MQUERY` dispatch with per-connection scratch: nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use shbf::server::{parse_command, parse_request, resolve_keys, Engine, QueryScratch, Request};
use shbf_concurrent::{recycle, BatchScratch, ShardedCShbfM};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only bumps a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, after one warm-up call.
fn allocs_of(mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn mquery_line(keys: usize) -> String {
    let mut line = String::from("MQUERY flows");
    for i in 0..keys {
        line.push_str(&format!(" key-{i:04}"));
    }
    line
}

#[test]
fn borrowed_parse_of_query_and_mquery_allocates_nothing() {
    // The key-slice buffer outlives each call only as an empty
    // allocation, the way the protocol session keeps it.
    let mut hex = Vec::new();
    let mut kept: Vec<&'static [u8]> = Vec::new();
    let query = "QUERY flows key-0001";
    let n = allocs_of(|| match parse_request(query).unwrap() {
        Request::Query { ns, key } => {
            assert_eq!(ns, "flows");
            let mut slices: Vec<&[u8]> = std::mem::take(&mut kept);
            resolve_keys(std::iter::once(key), &mut hex, &mut slices);
            assert_eq!(slices, [b"key-0001".as_slice()]);
            kept = recycle(slices);
        }
        other => panic!("{other:?}"),
    });
    assert_eq!(n, 0, "borrowed QUERY parse allocated");

    let line = mquery_line(64);
    let n = allocs_of(|| match parse_request(&line).unwrap() {
        Request::MQuery { ns, keys } => {
            assert_eq!(ns, "flows");
            let mut slices: Vec<&[u8]> = std::mem::take(&mut kept);
            resolve_keys(keys, &mut hex, &mut slices);
            assert_eq!(slices.len(), 64);
            kept = recycle(slices);
        }
        other => panic!("{other:?}"),
    });
    assert_eq!(n, 0, "borrowed 64-key MQUERY parse allocated");
}

#[test]
fn owned_parse_of_query_allocates_the_namespace_and_the_key() {
    let n = allocs_of(|| {
        std::hint::black_box(parse_command("QUERY flows key-0001").unwrap());
    });
    assert_eq!(n, 2);
}

#[test]
fn batch_probe_and_mquery_dispatch_allocate_nothing_when_warm() {
    let filter = ShardedCShbfM::new(1 << 16, 8, 8, 7).unwrap();
    let keys: Vec<Vec<u8>> = (0..64)
        .map(|i| format!("key-{i:04}").into_bytes())
        .collect();
    filter.insert_batch(&keys[..32]);
    let mut verdicts = Vec::new();
    let mut scratch = BatchScratch::default();
    let n = allocs_of(|| filter.contains_batch_with(&keys, &mut verdicts, &mut scratch));
    assert_eq!(n, 0, "warm batch probe allocated");
    assert!(verdicts[..32].iter().all(|&hit| hit));

    // The smallest coalesced run the server sees and a batch of many
    // chunks: the shard ids, the read guards and the kernel's stage
    // buffer are all recycled.
    for len in [3, 513] {
        let keys: Vec<Vec<u8>> = (0..len)
            .map(|i| format!("key-{i:04}").into_bytes())
            .collect();
        let n = allocs_of(|| filter.contains_batch_with(&keys, &mut verdicts, &mut scratch));
        assert_eq!(n, 0, "warm {len}-key batch probe allocated");
        assert!(verdicts[..3].iter().all(|&hit| hit));
    }

    let engine = Engine::new();
    engine.eval_line("CREATE flows shbf-m 65536 8");
    let cmd = parse_command(&mquery_line(64)).unwrap();
    let mut scratch = QueryScratch::new();
    let n = allocs_of(|| {
        let (response, _) = engine.dispatch_with(&cmd, &mut scratch);
        scratch.reclaim(response);
    });
    assert_eq!(n, 0, "warm MQUERY dispatch allocated");
}
