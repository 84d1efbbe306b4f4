//! Traced run: replays a workload's exact request bytes in-process through
//! each layer's public functions and times every layer on its own.
//!
//! * core: `ShardedCShbfM::{contains, contains_batch_with, insert}` on the
//!   engine's own namespace, and `ShbfM::contains_profiled` for word reads;
//! * protocol: `scan_line`, `parse_command`, and reply encoding;
//! * engine: `Engine::dispatch_with`, with QUERY runs coalesced into one
//!   `MQUERY` dispatch as the evented transport does;
//! * session: scan + parse + dispatch + encode over the round's bytes;
//! * wal: `Wal::append` of the lines the workload would log;
//! * snapshot: `snapshot::save` of the loaded registry.
//!
//! A counting global allocator (this binary only, so the end-to-end run
//! does not pay for it) gives allocations per command. The first steps of
//! the first pass also run a session with a span around every call; the
//! spans are written out at the end. Prints one JSON object.
//!
//! ```text
//! perfbench-trace --workload NAME --seed N --seconds S --work-dir DIR --spans-out FILE
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use shbf_concurrent::{BatchScratch, ShardedCShbfM};
use shbf_core::{CShbfM, ShbfM};
use shbf_perfbench::{
    flag, interquartile_mean, key, load_lines, median, parse_flags, rounds, Expect, Json, Pool,
    Round, Shape, HASH_SEED, INSERT_POOL, K, NONMEMBER_POOL, NS,
};
use shbf_server::protocol::{parse_command, scan_line, Command, Response, Scan};
use shbf_server::{Engine, FsyncPolicy, QueryScratch};
use shbf_wal::{Wal, WalConfig};

/// Counts every allocation and reallocation made by the process.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

type Result<T> = std::result::Result<T, String>;

/// Request lines a session may buffer, as in the server.
const MAX_LINE: usize = 1 << 20;
/// Timed passes over the replayed rounds: at least this many, and more
/// until `--seconds` have gone by, so the figures average over the host's
/// fast and slow spells as the end-to-end window does.
const MIN_PASSES: usize = 2;
/// Traced sessions (enough for stable shares, small enough that the span
/// file stays a few MiB).
const TRACED_ROUNDS: usize = 256;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => println!("{}", report.render()),
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            std::process::exit(1);
        }
    }
}

/// One protocol session over in-memory bytes, framing and coalescing the
/// way the evented transport does: adjacent QUERYs on one namespace become
/// one `MQUERY` dispatch whose verdicts are written back as `:1`/`:0` lines.
struct Session {
    scratch: QueryScratch,
    /// The pending QUERY group, kept as an `MQUERY` command so its buffers
    /// are reused from group to group.
    group: Command,
}

impl Session {
    fn new() -> Session {
        Session {
            scratch: QueryScratch::new(),
            group: Command::MQuery {
                ns: String::new(),
                keys: Vec::new(),
            },
        }
    }

    fn group_keys(&mut self) -> (&mut String, &mut Vec<Vec<u8>>) {
        match &mut self.group {
            Command::MQuery { ns, keys } => (ns, keys),
            _ => unreachable!("the group is always an MQUERY"),
        }
    }

    fn flush(&mut self, engine: &Engine, out: &mut Vec<u8>, spans: &mut Option<&mut Spans>) {
        if self.group_keys().1.is_empty() {
            return;
        }
        let s = span_start(spans);
        let (response, _) = engine.dispatch_with(&self.group, &mut self.scratch);
        span_end(spans, s, "engine.dispatch_with");
        let s = span_start(spans);
        match &response {
            Response::Verdicts(verdicts) => {
                for &hit in verdicts {
                    out.extend_from_slice(if hit { b":1\r\n" } else { b":0\r\n" });
                }
            }
            other => {
                for _ in 0..self.group_keys().1.len() {
                    other.encode(out);
                }
            }
        }
        span_end(spans, s, "protocol.encode");
        self.scratch.reclaim(response);
        self.group_keys().1.clear();
    }

    /// Serves every line of `input`, appending the replies to `out`.
    fn serve(
        &mut self,
        engine: &Engine,
        input: &[u8],
        out: &mut Vec<u8>,
        mut spans: Option<&mut Spans>,
    ) {
        let mut at = 0;
        while at < input.len() {
            let s = span_start(&spans);
            let scanned = scan_line(&input[at..], true, MAX_LINE);
            span_end(&mut spans, s, "protocol.scan_line");
            let Scan::Line { line, advance } = scanned else {
                panic!("generated requests are whole lines under the cap");
            };
            at += advance;
            let text = std::str::from_utf8(line).expect("generated requests are UTF-8");
            let s = span_start(&spans);
            let parsed = parse_command(text.trim_end_matches('\r'));
            span_end(&mut spans, s, "protocol.parse_command");
            match parsed {
                Ok(Command::Query { ns, key }) => {
                    let (group_ns, keys) = self.group_keys();
                    if !keys.is_empty() && *group_ns != ns {
                        self.flush(engine, out, &mut spans);
                    }
                    let (group_ns, keys) = self.group_keys();
                    if keys.is_empty() {
                        *group_ns = ns;
                    }
                    keys.push(key);
                }
                Ok(cmd) => {
                    self.flush(engine, out, &mut spans);
                    let s = span_start(&spans);
                    let (response, _) = engine.dispatch_with(&cmd, &mut self.scratch);
                    span_end(&mut spans, s, "engine.dispatch_with");
                    let s = span_start(&spans);
                    response.encode(out);
                    span_end(&mut spans, s, "protocol.encode");
                    self.scratch.reclaim(response);
                }
                Err(e) => {
                    self.flush(engine, out, &mut spans);
                    Response::Error(e.to_string()).encode(out);
                }
            }
        }
        self.flush(engine, out, &mut spans);
    }
}

/// Spans recorded by the traced sessions: name, start, end and parent, with
/// the spans of one round sharing the round's id. Held in memory and
/// written out at the end.
struct Spans {
    epoch: Instant,
    round: u64,
    /// Index of the open round span (the parent of every call span).
    parent: usize,
    list: Vec<SpanRec>,
}

struct SpanRec {
    name: &'static str,
    round: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Spans {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_round(&mut self, round: u64) {
        self.round = round;
        self.parent = self.list.len();
        let start_ns = self.now();
        self.list.push(SpanRec {
            name: "session.round",
            round,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
    }

    fn close_round(&mut self) {
        let end = self.now();
        self.list[self.parent].end_ns = end;
    }

    /// Self time per span name: duration minus what its children cover.
    fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (i, s) in self.list.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
        totals
    }

    /// Chrome trace-event JSON (complete events, µs).
    fn to_json(&self) -> String {
        let events = self
            .list
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj([
                            ("round", Json::Int(s.round)),
                            (
                                "parent",
                                s.parent
                                    .map_or(Json::Str("none".into()), |p| Json::Int(p as u64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))]).render()
    }
}

fn span_start(spans: &Option<&mut Spans>) -> u64 {
    spans.as_ref().map_or(0, |s| s.now())
}

fn span_end(spans: &mut Option<&mut Spans>, start_ns: u64, name: &'static str) {
    if let Some(s) = spans {
        let end_ns = s.now();
        let (round, parent) = (s.round, s.parent);
        s.list.push(SpanRec {
            name,
            round,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
    }
}

/// The probe keys of a round, in order.
fn probe_keys(r: &Round) -> Vec<Vec<u8>> {
    commands(r)
        .into_iter()
        .filter_map(|c| match c {
            Command::Query { key, .. } => Some(vec![key]),
            Command::MQuery { keys, .. } => Some(keys),
            _ => None,
        })
        .flatten()
        .collect()
}

/// The INSERT keys of a round, in order.
fn insert_keys(r: &Round) -> Vec<Vec<u8>> {
    commands(r)
        .into_iter()
        .filter_map(|c| match c {
            Command::Insert { key, .. } => Some(key),
            _ => None,
        })
        .collect()
}

/// Every line of a round.
fn lines(r: &Round) -> Vec<&str> {
    std::str::from_utf8(&r.bytes)
        .expect("generated requests are UTF-8")
        .lines()
        .collect()
}

fn commands(r: &Round) -> Vec<Command> {
    lines(r)
        .into_iter()
        .map(|l| parse_command(l).expect("generated requests parse"))
        .collect()
}

/// The engine's dispatch units for a round: QUERY runs coalesced into one
/// MQUERY, every other command as is.
fn dispatch_units(r: &Round) -> Vec<Command> {
    let mut units: Vec<Command> = Vec::new();
    for cmd in commands(r) {
        match cmd {
            Command::Query { ns, key } => match units.last_mut() {
                Some(Command::MQuery { ns: group, keys }) if *group == ns => keys.push(key),
                _ => units.push(Command::MQuery {
                    ns,
                    keys: vec![key],
                }),
            },
            other => units.push(other),
        }
    }
    units
}

fn run(args: &[String]) -> Result<Json> {
    let flags = parse_flags(args)?;
    let need = |name: &str| flag(&flags, name).ok_or_else(|| format!("--{name} is required"));
    let w = shbf_perfbench::workload(need("workload")?)
        .ok_or_else(|| format!("unknown workload `{}`", need("workload").unwrap_or("")))?;
    let seed: u64 = need("seed")?.parse().map_err(|_| "--seed: not a number")?;
    let work = PathBuf::from(need("work-dir")?);
    let spans_out = PathBuf::from(need("spans-out")?);
    let seconds: f64 = need("seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number")?;
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let replay = rounds(w, seed);
    let replay = &replay[..];
    let ops_of = |r: &Round| r.expect.len();
    let total_ops: usize = replay.iter().map(ops_of).sum();

    // core.words_per_query: word reads per probe of the plain ShbfM with
    // the namespace's geometry and keys (built first and dropped, so the
    // two filters are never resident together).
    let words_per_query = {
        let mut plain = ShbfM::with_config(
            w.m_bits,
            K,
            CShbfM::default_w_bar(),
            shbf_hash::HashAlg::Murmur3,
            HASH_SEED,
        )
        .map_err(|e| e.to_string())?;
        for i in 0..w.preload {
            plain.insert(key(seed, Pool::Member, i).as_bytes());
        }
        if w.shape == Shape::Mixed {
            for i in 0..INSERT_POOL {
                plain.insert(key(seed, Pool::Insert, i).as_bytes());
            }
        }
        let mut stats = shbf_bits::AccessStats::new();
        let mut probes = 0u64;
        for r in replay {
            for k in probe_keys(r) {
                plain.contains_profiled(&k, &mut stats);
                probes += 1;
            }
        }
        stats.word_reads as f64 / probes as f64
    };

    // The engine, set up as the server of the measured window is: same
    // CREATE, same bulk load.
    let engine = Engine::new();
    let eval = |line: &str| -> Result<()> {
        match engine.eval_line(line) {
            Response::Error(e) => Err(format!("`{}`: {e}", &line[..line.len().min(40)])),
            _ => Ok(()),
        }
    };
    eval(&w.create_line())?;
    for line in load_lines(w, seed) {
        eval(std::str::from_utf8(&line).expect("UTF-8").trim_end())?;
    }
    let namespace = engine.registry().get(NS).map_err(|e| e.to_string())?;
    let filter: &ShardedCShbfM = match &namespace.backend {
        shbf_server::registry::Backend::Membership(f) => f,
        _ => return Err("namespace is not shbf-m".into()),
    };

    // Warm-up as in the end-to-end run: one pass of the session, which on
    // `mixed` also inserts the whole insert pool.
    let mut session = Session::new();
    let mut out = Vec::with_capacity(1 << 16);
    let warm = match w.shape {
        Shape::Mixed => &replay[..INSERT_POOL.div_ceil(w.round_ops / 4)],
        _ => replay,
    };
    for r in warm {
        out.clear();
        session.serve(&engine, &r.bytes, &mut out, None);
    }

    // core.fpr: share of the non-member pool the namespace answers 1.
    let nonmember_hits = (0..NONMEMBER_POOL)
        .filter(|&i| filter.contains(key(seed, Pool::NonMember, i).as_bytes()))
        .count();
    let fpr = nonmember_hits as f64 / NONMEMBER_POOL as f64;

    let round_keys: Vec<Vec<Vec<u8>>> = replay.iter().map(probe_keys).collect();
    let round_lines: Vec<Vec<&str>> = replay.iter().map(lines).collect();
    let round_units: Vec<Vec<Command>> = replay.iter().map(dispatch_units).collect();

    // The replies each dispatch unit gets, for the encode pass.
    let responses: Vec<Vec<Response>> = round_units
        .iter()
        .map(|units| units.iter().map(|u| engine.dispatch(u).0).collect())
        .collect();

    // Keys for core.insert_ns: the round's INSERT keys on `mixed`, else 16
    // of its member keys. Both are already in the filter, so inserting them
    // again leaves the bit array, and every probe's answer, unchanged.
    let round_insert_keys: Vec<Vec<Vec<u8>>> = replay
        .iter()
        .zip(&round_keys)
        .map(|(r, keys)| match w.shape {
            Shape::Mixed => insert_keys(r),
            _ => {
                let probes = r.expect.iter().filter(|e| **e != Expect::Insert);
                let members = probes.zip(keys).filter(|(e, _)| **e == Expect::Member);
                members.map(|(_, k)| k.clone()).take(16).collect()
            }
        })
        .collect();

    // Every phase is timed on every step, one after the other, so all
    // phases see the same mix of the host's fast and slow spells. Phase
    // `k` works on round `step + k * stride`: the filter lines a round's
    // keys touch are cold for each phase, as they are in the server.
    let n = replay.len();
    let stride = n / 10;
    let mut m = Phases::default();
    let mut verdicts = Vec::new();
    let mut scratch = BatchScratch::default();
    let mut scratch_q = QueryScratch::new();
    let mut parsed: Vec<Command> = Vec::with_capacity(w.round_ops);
    let (mut protocol_allocs, mut engine_allocs) = (0u64, 0u64);
    let mut spans = Spans {
        epoch: Instant::now(),
        round: 0,
        parent: 0,
        list: Vec::with_capacity(TRACED_ROUNDS * (4 * w.round_ops + 1)),
    };
    let time = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        started.elapsed().as_nanos() as f64
    };
    let passes_start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || passes_start.elapsed().as_secs_f64() < seconds {
        let pass = passes;
        passes += 1;
        for step in 0..n {
            let at = |k: usize| (step + k * stride) % n;

            // L2: the whole session.
            let r = &replay[at(0)];
            m.session_round.push(time(&mut || {
                out.clear();
                session.serve(&engine, &r.bytes, &mut out, None);
            }));
            if pass == 0 && step < TRACED_ROUNDS {
                // A session with a span around every call.
                let i = at(1);
                m.traced_round.push(time(&mut || {
                    out.clear();
                    spans.open_round(i as u64);
                    session.serve(&engine, &replay[i].bytes, &mut out, Some(&mut spans));
                    spans.close_round();
                }));
            }

            // L0: the core structure.
            let i = at(2);
            m.contains.push(
                time(&mut || {
                    for k in &round_keys[i] {
                        std::hint::black_box(filter.contains(k));
                    }
                }) / round_keys[i].len() as f64,
            );
            let i = at(3);
            m.contains_batch.push(
                time(&mut || {
                    for group in round_keys[i].chunks(w.batch) {
                        filter.contains_batch_with(group, &mut verdicts, &mut scratch);
                        std::hint::black_box(&verdicts);
                    }
                }) / round_keys[i].len() as f64,
            );
            let i = at(4);
            m.insert.push(
                time(&mut || {
                    for k in &round_insert_keys[i] {
                        filter.insert(k);
                    }
                }) / round_insert_keys[i].len() as f64,
            );
            // The core work behind a round's dispatches.
            let i = at(5);
            m.core_same.push(
                time(&mut || {
                    for unit in &round_units[i] {
                        match unit {
                            Command::MQuery { keys, .. } => {
                                filter.contains_batch_with(keys, &mut verdicts, &mut scratch);
                                std::hint::black_box(&verdicts);
                            }
                            Command::Insert { key, .. } => filter.insert(key),
                            _ => {}
                        }
                    }
                }) / ops_of(&replay[i]) as f64,
            );

            // Protocol: framing, parsing and encoding on their own.
            let a = allocs();
            let r = &replay[at(6)];
            m.scan.push(
                time(&mut || {
                    let mut pos = 0;
                    while pos < r.bytes.len() {
                        let Scan::Line { advance, line } =
                            scan_line(&r.bytes[pos..], true, MAX_LINE)
                        else {
                            break;
                        };
                        std::hint::black_box(line);
                        pos += advance;
                    }
                }) / ops_of(r) as f64,
            );
            let i = at(7);
            m.parse.push(
                time(&mut || {
                    for line in &round_lines[i] {
                        parsed.push(parse_command(line).expect("generated requests parse"));
                    }
                    // Dropping the commands is part of the parse cost.
                    parsed.clear();
                }) / ops_of(&replay[i]) as f64,
            );
            let i = at(8);
            m.encode.push(
                time(&mut || {
                    out.clear();
                    for (unit, response) in round_units[i].iter().zip(&responses[i]) {
                        match (unit, response) {
                            // A coalesced QUERY run is written back line by
                            // line.
                            (Command::MQuery { .. }, Response::Verdicts(v))
                                if w.shape != Shape::MQuery =>
                            {
                                for &hit in v {
                                    out.extend_from_slice(if hit { b":1\r\n" } else { b":0\r\n" });
                                }
                            }
                            _ => response.encode(&mut out),
                        }
                    }
                }) / ops_of(&replay[i]) as f64,
            );
            protocol_allocs += allocs() - a;

            // L1: engine dispatch of the parsed commands.
            let i = at(9);
            let a = allocs();
            m.dispatch.push(
                time(&mut || {
                    for unit in &round_units[i] {
                        let (response, _) = engine.dispatch_with(unit, &mut scratch_q);
                        scratch_q.reclaim(std::hint::black_box(response));
                    }
                }) / ops_of(&replay[i]) as f64,
            );
            engine_allocs += allocs() - a;
        }
    }
    let measured_ops = (passes * total_ops) as f64;

    // WAL: append the lines the workload would log, under the durable
    // phase's fsync policy `always`. The read workloads log nothing; their
    // request lines are appended with fsync `no` to price the record path
    // alone.
    let (policy, payloads): (FsyncPolicy, Vec<&str>) = if w.shape == Shape::Mixed {
        let inserts = round_lines
            .iter()
            .flatten()
            .filter(|l| l.starts_with("INSERT"));
        (FsyncPolicy::Always, inserts.copied().take(2000).collect())
    } else {
        (
            FsyncPolicy::No,
            round_lines.iter().flatten().copied().take(20_000).collect(),
        )
    };
    let wal_dir = work.join("wal-append");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut config = WalConfig::new(&wal_dir);
    config.fsync = policy;
    let mut wal = Wal::open(&config, 0).map_err(|e| format!("wal open: {e:?}"))?;
    let mut append_us = Vec::with_capacity(payloads.len());
    for p in &payloads {
        let started = Instant::now();
        wal.append(p.as_bytes())
            .map_err(|e| format!("wal append: {e:?}"))?;
        append_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Snapshot: save the loaded registry, as the periodic snapshot does.
    let snap = work.join("bench.snap");
    let mut write_ms = Vec::new();
    let snap_start = Instant::now();
    while write_ms.len() < 3 && (write_ms.is_empty() || snap_start.elapsed().as_secs_f64() < 3.0) {
        let started = Instant::now();
        shbf_server::snapshot::save(engine.registry(), &snap)
            .map_err(|e| format!("snapshot: {e}"))?;
        write_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let _ = std::fs::remove_file(&snap);
    }

    let traced_total: u64 = spans
        .list
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let traced_rounds = m.traced_round.len();
    let self_times = spans.self_times();
    if let Some(dir) = spans_out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&spans_out, spans.to_json())
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;

    let session_round_ns = interquartile_mean(&m.session_round);
    let dispatch = interquartile_mean(&m.dispatch);
    let core_same = interquartile_mean(&m.core_same);
    let wal_append_us = median(&append_us);
    Ok(Json::obj([
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Int(seed)),
        ("replayed_rounds", Json::Int(replay.len() as u64)),
        ("passes", Json::Int(passes as u64)),
        (
            "core.contains_ns",
            Json::Num(interquartile_mean(&m.contains)),
        ),
        (
            "core.contains_batch_ns",
            Json::Num(interquartile_mean(&m.contains_batch)),
        ),
        ("core.batch_size", Json::Int(w.batch as u64)),
        ("core.insert_ns", Json::Num(interquartile_mean(&m.insert))),
        ("core.words_per_query", Json::Num(words_per_query)),
        ("core.fpr", Json::Num(fpr)),
        ("protocol.scan_ns", Json::Num(interquartile_mean(&m.scan))),
        ("protocol.parse_ns", Json::Num(interquartile_mean(&m.parse))),
        (
            "protocol.encode_ns",
            Json::Num(interquartile_mean(&m.encode)),
        ),
        (
            "protocol.allocs_per_cmd",
            Json::Num(protocol_allocs as f64 / measured_ops),
        ),
        ("engine.dispatch_ns", Json::Num(dispatch)),
        // The engine's own time: dispatch minus the core structure's.
        ("engine.self_ns", Json::Num(dispatch - core_same)),
        ("engine.core_ns", Json::Num(core_same)),
        (
            "engine.allocs_per_cmd",
            Json::Num(engine_allocs as f64 / measured_ops),
        ),
        (
            "session.ns_per_cmd",
            Json::Num(session_round_ns / (total_ops as f64 / replay.len() as f64)),
        ),
        ("session.us_per_round", Json::Num(session_round_ns / 1e3)),
        ("wal.append_us", Json::Num(wal_append_us)),
        ("wal.append_policy", Json::Str(policy.name().into())),
        ("wal.appends", Json::Int(payloads.len() as u64)),
        ("snapshot.write_ms", Json::Num(median(&write_ms))),
        ("trace.rounds", Json::Int(traced_rounds as u64)),
        ("trace.spans", Json::Int(spans.list.len() as u64)),
        (
            "trace.overhead_frac",
            Json::Num(
                interquartile_mean(&m.traced_round)
                    / interquartile_mean(&m.session_round[..traced_rounds])
                    - 1.0,
            ),
        ),
        (
            "trace.self_ns_per_round",
            Json::obj(
                self_times
                    .iter()
                    .map(|(n, t)| (n.to_string(), Json::Num(*t as f64 / traced_rounds as f64))),
            ),
        ),
        (
            "trace.round_ns_traced",
            Json::Num(traced_total as f64 / traced_rounds as f64),
        ),
    ]))
}

/// Per-step figures of every pass (ns per operation unless noted).
#[derive(Default)]
struct Phases {
    /// Whole session, ns per round.
    session_round: Vec<f64>,
    /// Session with spans, ns per round, for the first steps of the first
    /// pass.
    traced_round: Vec<f64>,
    contains: Vec<f64>,
    contains_batch: Vec<f64>,
    insert: Vec<f64>,
    core_same: Vec<f64>,
    scan: Vec<f64>,
    parse: Vec<f64>,
    encode: Vec<f64>,
    dispatch: Vec<f64>,
}
