//! The staged batch probe kernel (`shbf_core::probe::contains_batch`)
//! against the scalar query, for every structure that runs it, plus the
//! lock-order guarantee of the sharded batch path.
//!
//! CI also runs this file on the optimised build, where the kernel's
//! chunk and survivor bookkeeping is compiled the way the server runs it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

use shbf_concurrent::{BatchScratch, ShardedCShbfM};
use shbf_core::{CShbfM, ProbeScratch, ShbfM};
use shbf_hash::{splitmix64, FamilyKind, HashAlg};

const FAMILIES: [FamilyKind; 2] = [FamilyKind::Seeded(HashAlg::Murmur3), FamilyKind::OneShot];
const KS: [usize; 4] = [2, 4, 8, 16];
/// Around the 32-key chunk: empty, one key, ragged, full, one over, and
/// many chunks with a ragged tail.
const LENGTHS: [usize; 6] = [0, 1, 31, 32, 33, 513];
const MEMBERS: usize = 400;

fn key(tag: u8, i: u64) -> Vec<u8> {
    let mut k = vec![tag];
    k.extend_from_slice(&splitmix64(i).to_le_bytes()[..(i % 9) as usize]);
    k
}

/// Members (the empty key among them) and the probe mix: members,
/// non-members, the empty key and duplicates of both, interleaved.
fn keysets() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut members: Vec<Vec<u8>> = (0..MEMBERS as u64 - 1).map(|i| key(b'm', i)).collect();
    members.push(Vec::new());
    let mut probes = Vec::new();
    for i in 0..600u64 {
        probes.push(members[(splitmix64(i) % MEMBERS as u64) as usize].clone());
        probes.push(key(b'n', i));
        if i % 7 == 0 {
            probes.push(Vec::new());
            probes.push(key(b'n', i / 2));
        }
    }
    (members, probes)
}

/// `m` for a fill of about one half at `k` and [`MEMBERS`] keys, so pair 1
/// both passes and fails, and so do the later pairs.
fn m_for(k: usize) -> usize {
    MEMBERS * k * 3 / 2
}

/// Checks one structure: for every batch length, the batch verdicts equal
/// the scalar ones and every member answers 1.
fn check(
    what: &str,
    members: &[Vec<u8>],
    probes: &[Vec<u8>],
    scalar: impl Fn(&[u8]) -> bool,
    mut batch: impl FnMut(&[&[u8]], &mut Vec<bool>),
) {
    let mut out = vec![true; 7]; // stale contents must be cleared
    for len in LENGTHS {
        let keys: Vec<&[u8]> = probes.iter().take(len).map(Vec::as_slice).collect();
        assert_eq!(keys.len(), len, "{what}: not enough probes");
        batch(&keys, &mut out);
        assert_eq!(out.len(), len, "{what} len {len}");
        for (i, (k, &verdict)) in keys.iter().zip(&out).enumerate() {
            assert_eq!(verdict, scalar(k), "{what} len {len} key {i}: {k:?}");
        }
        let keys: Vec<&[u8]> = members.iter().take(len).map(Vec::as_slice).collect();
        batch(&keys, &mut out);
        assert!(
            out.iter().all(|&hit| hit),
            "{what} len {len}: batch false negative"
        );
    }
}

#[test]
fn shbf_m_batch_equals_scalar() {
    let (members, probes) = keysets();
    for family in FAMILIES {
        for k in KS {
            let mut f = ShbfM::with_family(m_for(k), k, 57, family, 11).unwrap();
            f.insert_batch(&members);
            check(
                &format!("ShbfM {family:?} k {k}"),
                &members,
                &probes,
                |key| f.contains(key),
                |keys, out| f.contains_batch_into(keys, out),
            );
        }
    }
}

#[test]
fn cshbf_m_batch_equals_scalar() {
    let (members, probes) = keysets();
    for family in FAMILIES {
        for k in KS {
            let mut f = CShbfM::with_family(m_for(k), k, 14, 4, family, 12).unwrap();
            f.insert_batch(&members);
            let mut scratch = ProbeScratch::default();
            check(
                &format!("CShbfM {family:?} k {k}"),
                &members,
                &probes,
                |key| f.contains(key),
                |keys, out| f.contains_batch_with(keys, out, &mut scratch),
            );
        }
    }
}

#[test]
fn sharded_batch_equals_scalar() {
    let (members, probes) = keysets();
    for family in FAMILIES {
        for k in KS {
            for shards in [1, 3, 8, 16] {
                let f = ShardedCShbfM::with_family(m_for(k), k, shards, family, 13).unwrap();
                f.insert_batch(&members);
                // One scratch through every length: reuse must not leak.
                let mut scratch = BatchScratch::default();
                check(
                    &format!("ShardedCShbfM {family:?} k {k} shards {shards}"),
                    &members,
                    &probes,
                    |key| f.contains(key),
                    |keys, out| f.contains_batch_with(keys, out, &mut scratch),
                );
            }
        }
    }
}

/// Two threads run batches that span every shard while two threads insert
/// and delete on random shards. The batch holds several read locks at
/// once, taken in ascending shard index; writers hold one write lock at a
/// time. That must never deadlock, and a key inserted before a batch
/// began and never deleted must always answer 1.
#[test]
fn batches_beside_writers_neither_deadlock_nor_lose_keys() {
    const SHARDS: usize = 4;
    const STABLE: u64 = 4096;
    let f = ShardedCShbfM::new(1 << 20, 8, SHARDS, 21).unwrap();
    let stable: Vec<Vec<u8>> = (0..STABLE).map(|i| key(b's', i)).collect();
    f.insert_batch(&stable);
    let readers_left = AtomicUsize::new(2);
    // All four start together, so the batches overlap the writers.
    let start = Barrier::new(4);
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        std::thread::scope(|s| {
            for reader in 0..2u64 {
                let (f, stable, readers_left, start) = (&f, &stable, &readers_left, &start);
                s.spawn(move || {
                    // Counted out even when an assertion fails, so the
                    // writers stop and the failure is reported.
                    let _left = ReaderLeft(readers_left);
                    start.wait();
                    let mut out = Vec::new();
                    let mut scratch = BatchScratch::default();
                    for round in 0..50_000u64 {
                        // 96 stable keys reach all 4 shards (a shard is
                        // missed with probability below 1e-11), plus 32
                        // keys the writers are churning. Short batches
                        // make many lock acquisitions, where a wrong
                        // lock order would deadlock.
                        let mut batch: Vec<Vec<u8>> = (0..96u64)
                            .map(|i| {
                                stable
                                    [(splitmix64(reader << 32 | round << 9 | i) % STABLE) as usize]
                                    .clone()
                            })
                            .collect();
                        batch.extend((0..32u64).map(|i| key(b'c', (round * 32 + i) % 2048)));
                        f.contains_batch_with(&batch, &mut out, &mut scratch);
                        assert!(
                            out[..96].iter().all(|&hit| hit),
                            "reader {reader} round {round}: a stable key answered 0"
                        );
                    }
                });
            }
            for writer in 0..2u64 {
                let (f, readers_left, start) = (&f, &readers_left, &start);
                s.spawn(move || {
                    start.wait();
                    let mut i = 0u64;
                    while readers_left.load(Ordering::Relaxed) > 0 {
                        let churn = key(b'c', splitmix64(writer << 40 | i) % 2048);
                        f.insert(&churn);
                        f.delete(&churn).expect("a key just inserted deletes");
                        i += 1;
                    }
                });
            }
        });
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("batch readers and writers did not finish: lock-order deadlock");
    worker.join().unwrap();
}

struct ReaderLeft<'a>(&'a AtomicUsize);

impl Drop for ReaderLeft<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}
