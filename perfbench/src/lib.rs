//! Shared pieces of the repository benchmark: the three workloads, the
//! seed-driven request generator, the reply checker, percentile helpers
//! and a small JSON writer. The two binaries build on these:
//! `perfbench-load` drives a real `shbf-cli serve` over loopback TCP, and
//! `perfbench-trace` replays the same request bytes in-process through each
//! layer's public functions.

use std::fmt::Write as _;

/// Name of the one namespace every workload targets.
pub const NS: &str = "bench";
/// Hash seed of the namespace, pinned so only `--seed` varies the inputs.
pub const HASH_SEED: u64 = 0x5683_2016;
/// Distinct non-member keys the probes draw from; the `fpr` figure is the
/// share of this whole pool answered `1` after the window.
pub const NONMEMBER_POOL: usize = 1 << 16;
/// Distinct keys the `mixed` INSERTs cycle through. The warm-up
/// inserts the whole pool, so the filter's fill in the window does not
/// depend on how fast the run goes.
pub const INSERT_POOL: usize = 1 << 12;
/// Keys per `MINSERT` line of the bulk load.
pub const LOAD_CHUNK: usize = 8192;
/// The server's default snapshot cadence, pinned explicitly.
pub const SNAPSHOT_EVERY: u64 = 10_000;
/// Hash positions (`k` of `CREATE`) of every namespace.
pub const K: usize = 8;
/// Shards of every namespace.
pub const SHARDS: usize = 8;
/// Workload rounds per timed echo in the end-to-end window (see
/// `perfbench-load`); divides every workload's `sub_rounds`.
pub const ECHO_EVERY: usize = 4;

/// What one round of a workload looks like on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Pipelined `QUERY` lines, one reply line each.
    Query,
    /// One `MQUERY` line; the reply is `*n` and `n` lines.
    MQuery,
    /// `QUERY QUERY QUERY INSERT` repeated; one reply line each.
    Mixed,
}

/// One benchmark workload: the namespace geometry, the preload and the
/// round shape. Every value here is pinned; only the keys depend on the
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Round shape.
    pub shape: Shape,
    /// Logical filter bits (`m` of `CREATE`).
    pub m_bits: usize,
    /// Member keys bulk-loaded by `MINSERT` during set-up.
    pub preload: usize,
    /// Operations per round (commands, or keys of the one `MQUERY`).
    pub round_ops: usize,
    /// Length of the coalesced batch the engine sees (a QUERY run, the
    /// MQUERY, or the 3 QUERYs between INSERTs).
    pub batch: usize,
    /// Distinct rounds generated; the window cycles through them.
    pub cycle_rounds: usize,
    /// Rounds per sub-window, enough for at least 10 rounds beyond each
    /// sub-window's p99. The window's figures are interquartile means over
    /// its sub-windows: the mean averages the host's slow and fast phases
    /// (they alternate every few seconds on a shared VM), the trimming
    /// drops bursts of CPU steal.
    pub sub_rounds: usize,
    /// The bare loopback echo time of one round's request bytes that the
    /// `_norm` figures and `setup_s` are scaled to: about its median on the
    /// 2-vCPU VM the benchmark was built on, in the host's slower phase.
    pub echo_ref_us: f64,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    // Filter fits the per-core L2: the probe is a few percent of a
    // command, so scan, parse, encode, dispatch, the evented transport and
    // QUERY coalescing dominate.
    Workload {
        name: "query_small",
        shape: Shape::Query,
        m_bits: 1 << 22,
        preload: 1 << 17,
        round_ops: 64,
        batch: 64,
        cycle_rounds: 4096,
        sub_rounds: 4000,
        echo_ref_us: 16.0,
    },
    // Filter far past L2 and one parse per 512 keys: the probe kernel,
    // its prefetch pipeline and hashing dominate.
    Workload {
        name: "mquery_large",
        shape: Shape::MQuery,
        m_bits: 1 << 30,
        preload: 1 << 22,
        round_ops: 512,
        batch: 512,
        cycle_rounds: 1024,
        sub_rounds: 1000,
        echo_ref_us: 22.0,
    },
    // Reads beside writes on one engine; coalesced QUERY runs are only 3
    // long.
    Workload {
        name: "mixed",
        shape: Shape::Mixed,
        m_bits: 1 << 25,
        preload: 1 << 20,
        round_ops: 64,
        batch: 3,
        cycle_rounds: 4096,
        // Four snapshot periods of the durable phase, which runs this
        // stream (10 000 mutations at 16 INSERTs a round): there every
        // sub-window holds the same number of snapshot stalls.
        sub_rounds: 2500,
        echo_ref_us: 16.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `CREATE` line, with every parameter spelled out.
    pub fn create_line(&self) -> String {
        format!(
            "CREATE {NS} shbf-m {} {K} {SHARDS} {HASH_SEED} family=seeded",
            self.m_bits
        )
    }
}

/// SplitMix64 finaliser: a bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Which pool a key belongs to. The one-letter prefix keeps the pools
/// disjoint whatever the hash values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// Preloaded members.
    Member,
    /// Never inserted.
    NonMember,
    /// Inserted by `mixed`'s INSERTs.
    Insert,
}

/// The `i`-th key of `pool` for `seed`: a prefix letter and 16 hex digits.
/// Distinct `i` give distinct keys (the mix is a bijection).
pub fn key(seed: u64, pool: Pool, i: usize) -> String {
    let (prefix, salt) = match pool {
        Pool::Member => ('m', 0x6d65_6d62),
        Pool::NonMember => ('n', 0x6e6f_6e6d),
        Pool::Insert => ('i', 0x696e_7372),
    };
    let base = mix64(seed ^ salt);
    let v = mix64(base.wrapping_add((i as u64).wrapping_mul(GOLDEN)));
    format!("{prefix}{v:016x}")
}

/// A small deterministic generator for the request stream.
struct Rng(u64);

impl Rng {
    /// Generator seeded from `seed` and a per-use salt.
    fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix64(seed ^ salt.wrapping_mul(GOLDEN)))
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }

    /// Uniform index below `n`.
    fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// What the reply to one operation must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A member probe: must be `:1` (a `:0` breaks the one-sided guarantee).
    Member,
    /// A non-member probe: `:0`, or `:1` as a false positive.
    NonMember,
    /// An `INSERT`: must be `+OK`.
    Insert,
}

/// One generated round: its request bytes and the expected reply of each
/// operation.
#[derive(Debug, Clone)]
pub struct Round {
    /// The request lines, each ending in `\n`.
    pub bytes: Vec<u8>,
    /// One entry per operation, in order.
    pub expect: Vec<Expect>,
}

/// Builds the workload's cycle of rounds for `seed`. The same seed gives
/// the same bytes. Probes are half members and half non-members, keys
/// drawn uniformly from their pools; `mixed`'s INSERT keys walk
/// the insert pool in order.
pub fn rounds(w: &Workload, seed: u64) -> Vec<Round> {
    let mut rng = Rng::new(seed, 0x726f_756e_6473);
    let mut insert_cursor = 0usize;
    let probe = |rng: &mut Rng, member: bool| -> (String, Expect) {
        if member {
            (
                key(seed, Pool::Member, rng.below(w.preload)),
                Expect::Member,
            )
        } else {
            (
                key(seed, Pool::NonMember, rng.below(NONMEMBER_POOL)),
                Expect::NonMember,
            )
        }
    };
    (0..w.cycle_rounds)
        .map(|_| {
            let probes = match w.shape {
                Shape::Query | Shape::MQuery => w.round_ops,
                Shape::Mixed => w.round_ops / 4 * 3,
            };
            let mut member = vec![false; probes];
            member[..probes / 2].fill(true);
            for i in (1..probes).rev() {
                member.swap(i, rng.below(i + 1));
            }
            let mut bytes = Vec::new();
            let mut expect = Vec::with_capacity(w.round_ops);
            match w.shape {
                Shape::Query => {
                    for &m in &member {
                        let (k, e) = probe(&mut rng, m);
                        let _ = writeln!(Bytes(&mut bytes), "QUERY {NS} {k}");
                        expect.push(e);
                    }
                }
                Shape::MQuery => {
                    bytes.extend_from_slice(format!("MQUERY {NS}").as_bytes());
                    for &m in &member {
                        let (k, e) = probe(&mut rng, m);
                        bytes.push(b' ');
                        bytes.extend_from_slice(k.as_bytes());
                        expect.push(e);
                    }
                    bytes.push(b'\n');
                }
                Shape::Mixed => {
                    for group in member.chunks(3) {
                        for &m in group {
                            let (k, e) = probe(&mut rng, m);
                            let _ = writeln!(Bytes(&mut bytes), "QUERY {NS} {k}");
                            expect.push(e);
                        }
                        let k = key(seed, Pool::Insert, insert_cursor % INSERT_POOL);
                        insert_cursor += 1;
                        let _ = writeln!(Bytes(&mut bytes), "INSERT {NS} {k}");
                        expect.push(Expect::Insert);
                    }
                }
            }
            Round { bytes, expect }
        })
        .collect()
}

/// `fmt::Write` adapter over a byte buffer.
struct Bytes<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for Bytes<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// The bulk-load lines for the workload's preload (`MINSERT`, chunked).
pub fn load_lines(w: &Workload, seed: u64) -> Vec<Vec<u8>> {
    (0..w.preload)
        .step_by(LOAD_CHUNK)
        .map(|start| {
            let mut line = format!("MINSERT {NS}").into_bytes();
            for i in start..(start + LOAD_CHUNK).min(w.preload) {
                line.push(b' ');
                line.extend_from_slice(key(seed, Pool::Member, i).as_bytes());
            }
            line.push(b'\n');
            line
        })
        .collect()
}

/// Why a reply counted as a failed operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    /// `-ERR` replies.
    pub error_replies: u64,
    /// Replies of the wrong shape for their slot (covers replies that
    /// arrive out of order) or that do not parse.
    pub malformed: u64,
    /// `MQUERY` replies whose array length is not the key count (each key
    /// of the round counts).
    pub wrong_arity: u64,
    /// `INSERT`s not answered `+OK`.
    pub bad_insert: u64,
    /// Member probes answered `:0`.
    pub false_negatives: u64,
}

impl Failures {
    /// Failed operations in total.
    pub fn total(&self) -> u64 {
        self.error_replies
            + self.malformed
            + self.wrong_arity
            + self.bad_insert
            + self.false_negatives
    }
}

/// Verifies reply streams against the expected replies and tallies
/// failures and false positives.
#[derive(Debug, Default, Clone)]
pub struct Checker {
    /// Failure counts by cause.
    pub failures: Failures,
    /// Non-member probes seen.
    pub nonmember_probes: u64,
    /// Non-member probes answered `:1`.
    pub false_positives: u64,
    /// `INSERT`s answered `+OK`.
    pub inserts_acked: u64,
}

/// Splits off the first `\n`-terminated line of `buf` (without `\r\n`).
fn next_line(buf: &[u8]) -> Option<(&[u8], usize)> {
    let i = buf.iter().position(|&b| b == b'\n')?;
    let line = &buf[..i];
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    Some((line, i + 1))
}

impl Checker {
    /// Checks one round's reply in `buf`. Returns `None` while the reply
    /// is incomplete (nothing is counted then), else the bytes it used.
    pub fn check_round(&mut self, shape: Shape, expect: &[Expect], buf: &[u8]) -> Option<usize> {
        match shape {
            Shape::Query | Shape::Mixed => {
                let mut at = 0;
                let mut lines = Vec::with_capacity(expect.len());
                for _ in 0..expect.len() {
                    let (line, used) = next_line(&buf[at..])?;
                    lines.push(line);
                    at += used;
                }
                for (line, &e) in lines.iter().zip(expect) {
                    self.check_one(line, e);
                }
                Some(at)
            }
            Shape::MQuery => {
                let (head, mut at) = next_line(buf)?;
                let n = match head.strip_prefix(b"*") {
                    Some(n) => std::str::from_utf8(n)
                        .ok()
                        .and_then(|n| n.parse::<usize>().ok()),
                    None => None,
                };
                let Some(n) = n else {
                    if head.starts_with(b"-") {
                        self.failures.error_replies += expect.len() as u64;
                    } else {
                        self.failures.malformed += expect.len() as u64;
                    }
                    return Some(at);
                };
                let start = at;
                for _ in 0..n {
                    let (_, used) = next_line(&buf[at..])?;
                    at += used;
                }
                if n != expect.len() {
                    self.failures.wrong_arity += expect.len() as u64;
                    return Some(at);
                }
                let mut rest = &buf[start..at];
                for &e in expect {
                    let (line, used) = next_line(rest).expect("counted above");
                    self.check_one(line, e);
                    rest = &rest[used..];
                }
                Some(at)
            }
        }
    }

    /// Checks one reply line against what its operation expects.
    pub fn check_one(&mut self, line: &[u8], expect: Expect) {
        if line.starts_with(b"-") {
            self.failures.error_replies += 1;
            return;
        }
        match (expect, line) {
            (Expect::Member, b":1") => {}
            (Expect::Member, b":0") => self.failures.false_negatives += 1,
            (Expect::NonMember, b":0") => self.nonmember_probes += 1,
            (Expect::NonMember, b":1") => {
                self.nonmember_probes += 1;
                self.false_positives += 1;
            }
            (Expect::Insert, b"+OK") => self.inserts_acked += 1,
            (Expect::Insert, _) => self.failures.bad_insert += 1,
            _ => self.failures.malformed += 1,
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of measurements (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile mean: the mean of `values` after dropping the lowest and
/// highest quarter (nothing is dropped below four values).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// A JSON value, written with its members in insertion order.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number (finite values only; others are written as `null`).
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses `--name value` pairs; every flag takes a value.
pub fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.push((name.to_string(), value.clone()));
    }
    Ok(flags)
}

/// The value of flag `name`, if given.
pub fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echoes_fall_evenly_into_sub_windows() {
        for w in &WORKLOADS {
            assert_eq!(w.sub_rounds % ECHO_EVERY, 0, "{}", w.name);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let w = workload("mixed").unwrap();
        let a = rounds(w, 7);
        let b = rounds(w, 7);
        assert_eq!(a[5].bytes, b[5].bytes);
        assert_ne!(a[5].bytes, rounds(w, 8)[5].bytes);
        assert_eq!(a[0].expect.len(), 64);
        let inserts = a[0].expect.iter().filter(|e| **e == Expect::Insert).count();
        assert_eq!(inserts, 16);
    }

    #[test]
    fn pools_are_disjoint_and_keys_distinct() {
        let a: std::collections::HashSet<_> = (0..5000).map(|i| key(1, Pool::Member, i)).collect();
        assert_eq!(a.len(), 5000);
        assert!(!a.contains(&key(1, Pool::NonMember, 3)));
    }

    /// A member answered `:0` and an INSERT reply swapped with the QUERY
    /// reply before it must both be counted as failures.
    #[test]
    fn checker_counts_false_negative_and_reordered_reply() {
        let expect = [
            Expect::Member,
            Expect::NonMember,
            Expect::Member,
            Expect::Insert,
        ];
        let mut c = Checker::default();
        // Slot 0: false negative. Slots 2 and 3: the `+OK` arrived before
        // the `:1` it should follow.
        let stream = b":0\r\n:0\r\n+OK\r\n:1\r\n";
        assert_eq!(
            c.check_round(Shape::Mixed, &expect, stream),
            Some(stream.len())
        );
        assert_eq!(c.failures.false_negatives, 1);
        assert_eq!(c.failures.malformed, 1);
        assert_eq!(c.failures.bad_insert, 1);
        assert_eq!(c.failures.total(), 3);
        assert_eq!(c.inserts_acked, 0);
    }

    #[test]
    fn checker_waits_for_complete_rounds_and_checks_arity() {
        let expect = [Expect::Member, Expect::NonMember];
        let mut c = Checker::default();
        assert_eq!(c.check_round(Shape::MQuery, &expect, b"*2\r\n:1\r\n"), None);
        assert_eq!(c.failures.total(), 0);
        assert_eq!(
            c.check_round(Shape::MQuery, &expect, b"*2\r\n:1\r\n:1\r\n"),
            Some(12)
        );
        assert_eq!((c.failures.total(), c.false_positives), (0, 1));
        c.check_round(Shape::MQuery, &expect, b"*1\r\n:1\r\n");
        assert_eq!(c.failures.wrong_arity, 2);
        c.check_round(Shape::Query, &expect, b"-ERR no such namespace\r\n:0\r\n");
        assert_eq!(c.failures.error_replies, 1);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_each_side() {
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v[0] = -1000.0;
        v[7] = 1000.0;
        assert_eq!(interquartile_mean(&v), 4.5);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(percentile(&v, 1.0), 1000);
    }
}
