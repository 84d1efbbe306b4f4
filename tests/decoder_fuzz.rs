//! Structure-aware decoder fuzzing.
//!
//! Random bytes never get past a blob's CRC-32, so garbage-input tests
//! cannot reach the code that trusts a blob's *declared* geometry. Here
//! each case starts from a valid blob, overwrites one header or array
//! length field with 0, 1, 2⁴⁰ or `u64::MAX`, and re-seals every CRC
//! around it, so the decoder sees a well-formed blob that lies about its
//! sizes. Every case must come back as an error, or as a filter that
//! re-encodes and decodes to the same bytes. None may panic, and none may
//! try to allocate what the blob only declares (that would abort the
//! process, failing the whole test binary).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use shbf::baselines::{Bf, Cbf};
use shbf::bits::crc::crc32;
use shbf::concurrent::ShardedCShbfM;
use shbf::core::{
    CShbfA, CShbfM, CShbfMs, CShbfX, GenShbfM, ScmSketch, SetId, ShbfA, ShbfM, ShbfX,
};
use shbf::server::{snapshot, Engine, Registry};

/// The values every field is overwritten with.
const VALUES: [u64; 4] = [0, 1, 1 << 40, u64::MAX];

/// Length of the codec header (magic, version, kind) before the body.
const HEADER: usize = 8;

/// One fixed-width little-endian field of a blob.
#[derive(Clone, Copy)]
struct Field {
    name: &'static str,
    /// Offset from the start of the blob (header included).
    offset: usize,
    /// 4 or 8 bytes.
    width: usize,
}

const fn u64_at(name: &'static str, offset: usize) -> Field {
    Field {
        name,
        offset,
        width: 8,
    }
}

const fn u32_at(name: &'static str, offset: usize) -> Field {
    Field {
        name,
        offset,
        width: 4,
    }
}

fn read(blob: &[u8], field: Field) -> u64 {
    let mut le = [0u8; 8];
    le[..field.width].copy_from_slice(&blob[field.offset..field.offset + field.width]);
    u64::from_le_bytes(le)
}

fn write(blob: &mut [u8], field: Field, value: u64) {
    let bytes = if field.width == 4 {
        u64::from(u32::try_from(value).unwrap_or(u32::MAX)).to_le_bytes()
    } else {
        value.to_le_bytes()
    };
    blob[field.offset..field.offset + field.width].copy_from_slice(&bytes[..field.width]);
}

/// Recomputes the CRC footer of the codec blob occupying `range`.
fn reseal(blob: &mut [u8], range: Range<usize>) {
    let end = range.end - 4;
    let crc = crc32(&blob[range.start..end]);
    blob[end..range.end].copy_from_slice(&crc.to_le_bytes());
}

/// The byte range of a length-prefixed blob whose length prefix starts
/// at `prefix`.
fn nested(blob: &[u8], prefix: usize) -> Range<usize> {
    let len = read(blob, u64_at("len", prefix)) as usize;
    prefix + 8..prefix + 8 + len
}

/// Runs every mutation of every field and checks each decode; returns how
/// many were refused. `decode` returns the decoded structure's re-encoding
/// on success. `nesting` lists where the mutated blob sits inside its
/// containers, innermost first, as byte ranges of the outermost blob: each
/// is re-sealed, then the outermost blob. Field offsets are relative to
/// the innermost blob.
fn fuzz<E: std::fmt::Debug>(
    kind: &str,
    blob: &[u8],
    nesting: &[Range<usize>],
    fields: &[Field],
    decode: impl Fn(&[u8]) -> Result<Vec<u8>, E>,
) -> usize {
    let base = nesting.first().map_or(0, |r| r.start);
    let mut refused = 0;
    for field in fields {
        let field = Field {
            offset: base + field.offset,
            ..*field
        };
        for value in VALUES {
            let mut bad = blob.to_vec();
            write(&mut bad, field, value);
            for range in nesting {
                reseal(&mut bad, range.clone());
            }
            let whole = 0..bad.len();
            reseal(&mut bad, whole);
            let case = format!("{kind}: {} = {value:#x}", field.name);
            let outcome = catch_unwind(AssertUnwindSafe(|| decode(&bad)))
                .unwrap_or_else(|_| panic!("{case}: decoder panicked"));
            match outcome {
                Err(_) => refused += 1,
                Ok(again) => {
                    let twice = decode(&again)
                        .unwrap_or_else(|e| panic!("{case}: re-encoding refused: {e:?}"));
                    assert_eq!(twice, again, "{case}: re-encoding does not round-trip");
                }
            }
        }
    }
    refused
}

/// Asserts each field's offset by reading the value the blob was built
/// with, so a format change cannot silently point the fuzzer elsewhere.
fn check_layout(kind: &str, blob: &[u8], base: usize, expect: &[(Field, u64)]) -> Vec<Field> {
    expect
        .iter()
        .map(|&(field, value)| {
            let at = Field {
                offset: base + field.offset,
                ..field
            };
            assert_eq!(read(blob, at), value, "{kind}: layout of {}", field.name);
            field
        })
        .collect()
}

fn key(i: u64) -> Vec<u8> {
    format!("key-{i}").into_bytes()
}

// Field layouts, as offsets into each structure's own blob.

fn shbf_m_fields(m: u64, physical: u64) -> Vec<(Field, u64)> {
    vec![
        (u64_at("m", HEADER), m),
        (u64_at("k", HEADER + 8), 8),
        (u64_at("w_bar", HEADER + 16), 57),
        (u64_at("bit array len", HEADER + 41), physical),
        (
            u64_at("bit array words", HEADER + 49),
            physical.div_ceil(64),
        ),
    ]
}

fn cshbf_m_fields(m: u64, w_bar: u64) -> Vec<(Field, u64)> {
    let physical = m + w_bar - 1;
    vec![
        (u64_at("m", HEADER), m),
        (u64_at("k", HEADER + 8), 8),
        (u64_at("w_bar", HEADER + 16), w_bar),
        (u32_at("counter width", HEADER + 24), 4),
        (u64_at("counter array len", HEADER + 45), physical),
        (u32_at("counter array width", HEADER + 53), 4),
        (
            u64_at("counter array words", HEADER + 57),
            (physical * 4).div_ceil(64),
        ),
    ]
}

fn cshbf_a_fields(m: u64) -> Vec<(Field, u64)> {
    let physical = m + 56;
    vec![
        (u64_at("m", HEADER), m),
        (u64_at("k", HEADER + 8), 6),
        (u64_at("w_bar", HEADER + 16), 57),
        (u32_at("counter width", HEADER + 24), 4),
        (u64_at("counter array len", HEADER + 37), physical),
        (u32_at("counter array width", HEADER + 45), 4),
        (
            u64_at("counter array words", HEADER + 49),
            (physical * 4).div_ceil(64),
        ),
    ]
}

fn cshbf_x_fields(m: u64, c: u64) -> Vec<(Field, u64)> {
    let physical = m + c - 1;
    vec![
        (u64_at("m", HEADER), m),
        (u64_at("k", HEADER + 8), 6),
        (u64_at("c", HEADER + 16), c),
        (u64_at("counter array len", HEADER + 34), physical),
        (u32_at("counter array width", HEADER + 42), 8),
        (
            u64_at("counter array words", HEADER + 46),
            (physical * 8).div_ceil(64),
        ),
    ]
}

fn cshbf_ms_fields(m: u64, sets: u64) -> Vec<(Field, u64)> {
    let physical = m + sets - 1;
    vec![
        (u64_at("m", HEADER), m),
        (u64_at("k", HEADER + 8), 4),
        (u64_at("sets", HEADER + 16), sets),
        (u32_at("counter width", HEADER + 24), 4),
        (u64_at("counter array len", HEADER + 37), physical),
        (u32_at("counter array width", HEADER + 45), 4),
        (
            u64_at("counter array words", HEADER + 49),
            (physical * 4).div_ceil(64),
        ),
    ]
}

#[test]
fn shbf_m_lying_headers_are_refused_or_round_trip() {
    let mut f = ShbfM::new(4096, 8, 3).unwrap();
    (0..200).for_each(|i| f.insert(&key(i)));
    let blob = f.to_bytes();
    let fields = check_layout("ShbfM", &blob, 0, &shbf_m_fields(4096, 4096 + 56));
    let refused = fuzz("ShbfM", &blob, &[], &fields, |b| {
        ShbfM::from_bytes(b).map(|f| f.to_bytes())
    });
    assert!(refused > 0);
}

#[test]
fn cshbf_m_lying_headers_are_refused_or_round_trip() {
    let mut f = CShbfM::new(4096, 8, 3).unwrap();
    (0..200).for_each(|i| f.insert(&key(i)));
    let blob = f.to_bytes();
    let fields = check_layout("CShbfM", &blob, 0, &cshbf_m_fields(4096, 14));
    let refused = fuzz("CShbfM", &blob, &[], &fields, |b| {
        CShbfM::from_bytes(b).map(|f| f.to_bytes())
    });
    assert!(refused > 0);
}

#[test]
fn cshbf_a_lying_headers_are_refused_or_round_trip() {
    let mut f = CShbfA::new(4096, 6, 3).unwrap();
    (0..100).for_each(|i| f.insert(&key(i), SetId::S1));
    (50..150).for_each(|i| f.insert(&key(i), SetId::S2));
    let blob = f.to_bytes();
    let fields = check_layout("CShbfA", &blob, 0, &cshbf_a_fields(4096));
    let refused = fuzz("CShbfA", &blob, &[], &fields, |b| {
        CShbfA::from_bytes(b).map(|f| f.to_bytes())
    });
    assert!(refused > 0);
}

#[test]
fn cshbf_x_lying_headers_are_refused_or_round_trip() {
    let mut f = CShbfX::new(4096, 6, 20, 3).unwrap();
    (0..100).for_each(|i| {
        f.insert(&key(i % 40)).unwrap();
    });
    let blob = f.to_bytes();
    let fields = check_layout("CShbfX", &blob, 0, &cshbf_x_fields(4096, 20));
    let refused = fuzz("CShbfX", &blob, &[], &fields, |b| {
        CShbfX::from_bytes(b).map(|f| f.to_bytes())
    });
    assert!(refused > 0);
}

#[test]
fn cshbf_ms_lying_headers_are_refused_or_round_trip() {
    let mut f = CShbfMs::new(4096, 4, 8, 3).unwrap();
    (0..100).for_each(|i| {
        f.insert(&key(i), (i % 8) as usize).unwrap();
    });
    let blob = f.to_bytes();
    let fields = check_layout("CShbfMs", &blob, 0, &cshbf_ms_fields(4096, 8));
    let refused = fuzz("CShbfMs", &blob, &[], &fields, |b| {
        CShbfMs::from_bytes(b).map(|f| f.to_bytes())
    });
    assert!(refused > 0);
}

#[test]
fn sharded_lying_headers_are_refused_or_round_trip() {
    let f = ShardedCShbfM::new(4 * 4096, 8, 4, 3).unwrap();
    (0..300).for_each(|i| f.insert(&key(i)));
    let blob = f.to_bytes();
    let decode = |b: &[u8]| ShardedCShbfM::from_bytes(b).map(|f| f.to_bytes());
    // The container: the shard count.
    let outer = check_layout(
        "ShardedCShbfM",
        &blob,
        0,
        &[(u64_at("shard count", HEADER + 8), 4)],
    );
    let refused = fuzz("ShardedCShbfM", &blob, &[], &outer, decode);
    assert_eq!(refused, VALUES.len(), "every forged shard count is refused");
    // The first shard's own header, re-sealed inside the container.
    let shard0 = nested(&blob, HEADER + 16);
    let inner = check_layout(
        "ShardedCShbfM shard 0",
        &blob,
        shard0.start,
        &cshbf_m_fields(4096, 14),
    );
    let refused = fuzz("ShardedCShbfM shard 0", &blob, &[shard0], &inner, decode);
    assert!(refused > 0);
}

#[test]
fn other_core_structures_lying_headers_are_refused_or_round_trip() {
    let members: Vec<Vec<u8>> = (0..100).map(key).collect();
    let a = ShbfA::builder()
        .bits(4096)
        .hashes(6)
        .w_bar(57)
        .seed(3)
        .build(&members[..60], &members[40..])
        .unwrap();
    let blob = a.to_bytes();
    let fields = check_layout(
        "ShbfA",
        &blob,
        0,
        &[
            (u64_at("m", HEADER), 4096),
            (u64_at("k", HEADER + 8), 6),
            (u64_at("w_bar", HEADER + 16), 57),
            (u64_at("bit array len", HEADER + 41), 4096 + 56),
            (
                u64_at("bit array words", HEADER + 49),
                (4096u64 + 56).div_ceil(64),
            ),
        ],
    );
    fuzz("ShbfA", &blob, &[], &fields, |b| {
        ShbfA::from_bytes(b).map(|f| f.to_bytes())
    });

    let counts: Vec<(Vec<u8>, u64)> = (0..50).map(|i| (key(i), 1 + i % 20)).collect();
    let x = ShbfX::build(&counts, 4096, 6, 20, 3).unwrap();
    let blob = x.to_bytes();
    let fields = check_layout(
        "ShbfX",
        &blob,
        0,
        &[
            (u64_at("m", HEADER), 4096),
            (u64_at("k", HEADER + 8), 6),
            (u64_at("c", HEADER + 16), 20),
            (u64_at("bit array len", HEADER + 41), 4096 + 19),
            (
                u64_at("bit array words", HEADER + 49),
                (4096u64 + 19).div_ceil(64),
            ),
        ],
    );
    fuzz("ShbfX", &blob, &[], &fields, |b| {
        ShbfX::from_bytes(b).map(|f| f.to_bytes())
    });

    let mut g = GenShbfM::new(4096, 6, 2, 3).unwrap();
    (0..100).for_each(|i| g.insert(&key(i)));
    let blob = g.to_bytes();
    let fields = check_layout(
        "GenShbfM",
        &blob,
        0,
        &[
            (u64_at("m", HEADER), 4096),
            (u64_at("k", HEADER + 8), 6),
            (u64_at("t", HEADER + 16), 2),
            (u64_at("w_bar", HEADER + 24), 57),
            (u64_at("bit array len", HEADER + 49), 4096 + 56),
            (
                u64_at("bit array words", HEADER + 57),
                (4096u64 + 56).div_ceil(64),
            ),
        ],
    );
    fuzz("GenShbfM", &blob, &[], &fields, |b| {
        GenShbfM::from_bytes(b).map(|f| f.to_bytes())
    });

    let mut s = ScmSketch::new(4, 256, 3).unwrap();
    (0..100).for_each(|i| s.insert(&key(i % 30)));
    let blob = s.to_bytes();
    let slots = 2 * (512 + 7 - 1);
    let fields = check_layout(
        "ScmSketch",
        &blob,
        0,
        &[
            (u64_at("d", HEADER), 4),
            (u64_at("r", HEADER + 8), 256),
            (u32_at("counter width", HEADER + 16), 8),
            (u64_at("counter array len", HEADER + 37), slots),
            (u32_at("counter array width", HEADER + 45), 8),
            (
                u64_at("counter array words", HEADER + 49),
                (slots * 8).div_ceil(64),
            ),
        ],
    );
    fuzz("ScmSketch", &blob, &[], &fields, |b| {
        ScmSketch::from_bytes(b).map(|f| f.to_bytes())
    });
}

#[test]
fn baseline_filters_lying_headers_are_refused_or_round_trip() {
    let mut bf = Bf::new(4096, 4, 3).unwrap();
    (0..100).for_each(|i| bf.insert(&key(i)));
    let blob = bf.to_bytes();
    let fields = check_layout(
        "Bf",
        &blob,
        0,
        &[
            (u64_at("m", HEADER), 4096),
            (u64_at("k", HEADER + 8), 4),
            (u64_at("bit array len", HEADER + 33), 4096),
            (u64_at("bit array words", HEADER + 41), 64),
        ],
    );
    let refused = fuzz("Bf", &blob, &[], &fields, |b| {
        Bf::from_bytes(b).map(|f| f.to_bytes())
    });
    assert!(refused > 0);

    let mut cbf = Cbf::new(4096, 4, 3).unwrap();
    (0..100).for_each(|i| cbf.insert(&key(i)));
    let blob = cbf.to_bytes();
    let fields = check_layout(
        "Cbf",
        &blob,
        0,
        &[
            (u64_at("m", HEADER), 4096),
            (u64_at("k", HEADER + 8), 4),
            (u64_at("counter array len", HEADER + 33), 4096),
            (u32_at("counter array width", HEADER + 41), 4),
            (u64_at("counter array words", HEADER + 45), 256),
        ],
    );
    let refused = fuzz("Cbf", &blob, &[], &fields, |b| {
        Cbf::from_bytes(b).map(|f| f.to_bytes())
    });
    assert!(refused > 0);
}

/// Every backend the server persists, nested inside a snapshot (the LOAD
/// and replica full-resync path), with the container's own namespace
/// count forged as well.
#[test]
fn snapshot_load_of_lying_headers_is_refused_or_round_trips() {
    let engine = Engine::new();
    for line in [
        "CREATE flows shbf-m 16384 8 4 7",
        "CREATE sizes shbf-x 4096 6 20 3",
        "CREATE gw shbf-a 4096 6 5",
        "CREATE tags multiset 4096 4 8 7",
        "INSERT flows key-1",
        "INSERT sizes f",
        "INSERT gw file 1",
        "MSINSERT tags doc 2",
    ] {
        let reply = engine.eval_line(line).encode_to_string();
        assert!(!reply.starts_with("-ERR"), "`{line}`: {reply}");
    }
    let blob = snapshot::to_bytes(engine.registry());
    let decode = |b: &[u8]| -> Result<Vec<u8>, snapshot::SnapshotError> {
        let registry = Registry::new();
        snapshot::load_bytes(&registry, b)?;
        Ok(snapshot::to_bytes(&registry))
    };

    let count = check_layout(
        "snapshot",
        &blob,
        0,
        &[(u64_at("namespace count", HEADER), 4)],
    );
    let refused = fuzz("snapshot", &blob, &[], &count, decode);
    assert_eq!(
        refused,
        VALUES.len(),
        "every forged namespace count is refused"
    );

    // Walk the container to find each namespace's backend blob.
    let mut at = HEADER + 8;
    let mut cases = 0;
    for _ in 0..4 {
        let name = nested(&blob, at);
        let name = String::from_utf8(blob[name.clone()].to_vec()).unwrap();
        let tag = blob[nested(&blob, at).end];
        let payload = nested(&blob, nested(&blob, at).end + 1);
        let kind = format!("snapshot {name}");
        let (fields, nesting) = match tag {
            1 => {
                let shard0 = nested(&blob, payload.start + HEADER + 16);
                (cshbf_m_fields(4096, 14), vec![shard0, payload.clone()])
            }
            2 => (cshbf_x_fields(4096, 20), vec![payload.clone()]),
            3 => (cshbf_a_fields(4096), vec![payload.clone()]),
            4 => (cshbf_ms_fields(4096, 8), vec![payload.clone()]),
            _ => panic!("unknown backend tag {tag}"),
        };
        let fields = check_layout(&kind, &blob, nesting[0].start, &fields);
        let refused = fuzz(&kind, &blob, &nesting, &fields, decode);
        assert!(refused > 0, "{kind}");
        if tag == 1 {
            let outer = check_layout(
                &kind,
                &blob,
                payload.start,
                &[(u64_at("shard count", HEADER + 8), 4)],
            );
            let refused = fuzz(&kind, &blob, std::slice::from_ref(&payload), &outer, decode);
            assert_eq!(refused, VALUES.len(), "{kind}: forged shard counts");
        }
        cases += 1;
        // Past the payload: four u64 stats, then the summary blob.
        at = nested(&blob, payload.end + 32).end;
    }
    assert_eq!(cases, 4);
    assert_eq!(at, blob.len() - 4, "walked the whole container");
}
