//! Real-socket server throughput — the `BENCH_server.json` emitter.
//!
//! Two workloads measure the set-query daemon end to end over real
//! sockets, with every client round byte-comparing its replies against
//! precomputed expectations (a transport that corrupted, reordered, or
//! dropped one reply fails the run instead of posting a number):
//!
//! 1. **Pure pipelined queries** (the PR-4 headline): N client threads,
//!    each keeping `depth` pipelined `QUERY` commands in flight against
//!    one bulk-loaded `shbf-m` namespace, threaded vs. evented transport
//!    over loopback TCP. Both run the same protocol session (one write per
//!    drained read), so this isolates per-connection blocking threads
//!    (threaded) vs. vectored writes from a few event loops (evented).
//! 2. **Mixed multi-namespace churn**: every round pipelines `MQUERY` +
//!    `QUERY` runs against two static namespaces interleaved with
//!    `INSERT`/`DELETE` churn on two more — ≥4 namespaces, verb switches
//!    breaking the session's query batching at realistic
//!    points — measured on both transports × both socket families (TCP
//!    and UNIX-domain). Churn keys are insert-before-delete per client,
//!    so expected replies stay exact under interleaving.
//!
//! The namespaces use the one-shot family so hashing is off the critical
//! path and the transport dominates.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shbf_hash::splitmix64;
use shbf_server::{Client, Endpoint, Engine, Server, ServerConfig, ServerHandle, TransportKind};

/// Configuration for [`run`].
#[derive(Debug, Clone)]
pub struct ServerBenchConfig {
    /// Concurrent client connections (one thread each).
    pub clients: usize,
    /// Pipelined `QUERY` commands per round-trip (pure-query workload).
    pub depth: usize,
    /// Logical filter bits (split over `shards`).
    pub m_bits: usize,
    /// Shards of the membership namespace.
    pub shards: usize,
    /// Member keys bulk-loaded at setup.
    pub keys: usize,
    /// Probe list length (half members, half misses).
    pub probes: usize,
    /// Measurement window per transport, in milliseconds.
    pub measure_ms: u64,
    /// Master seed for keys and the filter.
    pub seed: u64,
}

impl Default for ServerBenchConfig {
    fn default() -> Self {
        ServerBenchConfig {
            clients: 64,
            depth: 32,
            m_bits: 1 << 22,
            shards: 8,
            keys: 1 << 17,
            probes: 1 << 13,
            measure_ms: 1500,
            seed: 0x5E3_4E3,
        }
    }
}

/// Which socket family a measurement ran over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketKind {
    /// Loopback TCP.
    Tcp,
    /// UNIX-domain socket.
    Unix,
}

impl SocketKind {
    fn name(self) -> &'static str {
        match self {
            SocketKind::Tcp => "tcp",
            SocketKind::Unix => "unix",
        }
    }
}

fn transport_name(t: TransportKind) -> &'static str {
    match t {
        TransportKind::Threaded => "threaded",
        TransportKind::Evented => "evented",
    }
}

/// One transport's pure-query measurement.
#[derive(Debug, Clone)]
pub struct TransportPoint {
    /// `threaded` / `evented`.
    pub name: &'static str,
    /// Total queries answered per second across all clients.
    pub ops_per_sec: f64,
    /// Total queries answered inside the window.
    pub ops: u64,
    /// Positive verdicts in one probe-list pass (behavioural
    /// fingerprint; must agree across transports).
    pub positives: u64,
}

/// One transport × socket measurement of the mixed workload.
#[derive(Debug, Clone)]
pub struct MixedPoint {
    /// `threaded` / `evented`.
    pub transport: &'static str,
    /// `tcp` / `unix`.
    pub socket: &'static str,
    /// Commands answered per second across all clients.
    pub ops_per_sec: f64,
    /// Commands answered inside the window.
    pub ops: u64,
}

/// The whole run.
#[derive(Debug, Clone)]
pub struct ServerBenchResult {
    /// Pure-query workload: threaded then evented (loopback TCP).
    pub transports: Vec<TransportPoint>,
    /// Evented ops/s over threaded ops/s on the pure-query workload.
    pub speedup_evented_vs_threaded: f64,
    /// Mixed multi-namespace workload across transport × socket.
    pub mixed: Vec<MixedPoint>,
    /// Evented-TCP over threaded-TCP ops/s on the mixed workload.
    pub mixed_speedup_evented_vs_threaded: f64,
}

pub(crate) fn key_token(i: u64, seed: u64) -> String {
    format!("k{:016x}", splitmix64(seed ^ i))
}

/// One prebuilt client round: the request bytes and the exact reply
/// bytes the server must produce for them.
pub(crate) struct Block {
    pub(crate) request: Vec<u8>,
    pub(crate) expected: Vec<u8>,
    /// Commands (replies) in this block.
    pub(crate) ops: u64,
}

static UNIX_SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

fn start_server(
    cfg: &ServerBenchConfig,
    transport: TransportKind,
    socket: SocketKind,
) -> (ServerHandle, Endpoint) {
    let engine = Arc::new(Engine::new());
    let config = ServerConfig {
        max_connections: cfg.clients + 8,
        transport,
        ..ServerConfig::default()
    };
    let server = match socket {
        SocketKind::Tcp => Server::bind("127.0.0.1:0", engine, config).expect("bind loopback"),
        SocketKind::Unix => {
            #[cfg(unix)]
            {
                let path = std::env::temp_dir().join(format!(
                    "shbf-bench-{}-{}.sock",
                    std::process::id(),
                    UNIX_SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                Server::bind_unix(path, engine, config).expect("bind unix socket")
            }
            #[cfg(not(unix))]
            unreachable!("unix measurements are skipped on non-unix targets")
        }
    };
    let endpoint = server.endpoint().clone();
    let handle = server.spawn().expect("spawn server");
    (handle, endpoint)
}

/// Creates + bulk-loads one namespace, returning its probe tokens and
/// expected verdicts (computed through `MQUERY`, so false positives are
/// covered exactly).
pub(crate) fn load_namespace(
    admin: &mut Client,
    ns: &str,
    m_bits: usize,
    shards: usize,
    keys: usize,
    probes: usize,
    seed: u64,
) -> (Vec<String>, Vec<bool>) {
    let create = format!("CREATE {ns} shbf-m {m_bits} 8 {shards} {seed} family=one-shot");
    let reply = admin.send_expect_one(&create).expect("CREATE");
    assert_eq!(reply, "+OK", "CREATE {ns} failed: {reply}");

    // Bulk load through MINSERT — the shard-grouped insert_batch path.
    let members: Vec<String> = (0..keys as u64).map(|i| key_token(i, seed)).collect();
    for chunk in members.chunks(512) {
        let line = format!("MINSERT {ns} {}", chunk.join(" "));
        let reply = admin.send_expect_one(&line).expect("MINSERT");
        assert_eq!(reply, format!(":{}", chunk.len()), "MINSERT failed");
    }

    // Probe list: members and misses interleaved.
    let misses: Vec<String> = (0..probes as u64 / 2)
        .map(|i| key_token(i, seed ^ 0x00FF_00FF_00FF_00FF))
        .collect();
    let mut probe_list = Vec::with_capacity(probes);
    for i in 0..probes / 2 {
        probe_list.push(members[i % members.len()].clone());
        probe_list.push(misses[i % misses.len()].clone());
    }

    // Expected verdicts via MQUERY (covers false positives exactly).
    let mut expected = Vec::with_capacity(probe_list.len());
    for chunk in probe_list.chunks(256) {
        let lines = admin
            .send(&format!("MQUERY {ns} {}", chunk.join(" ")))
            .expect("MQUERY");
        assert_eq!(lines[0], format!("*{}", chunk.len()));
        for line in &lines[1..] {
            expected.push(match line.as_str() {
                ":1" => true,
                ":0" => false,
                other => panic!("unexpected MQUERY reply line `{other}`"),
            });
        }
    }
    (probe_list, expected)
}

pub(crate) fn verdict_bytes(v: bool) -> &'static [u8] {
    if v {
        b":1\r\n"
    } else {
        b":0\r\n"
    }
}

/// Pure-query setup: one namespace, `depth` pipelined QUERYs per block.
pub(crate) fn setup_query(cfg: &ServerBenchConfig, endpoint: &Endpoint) -> (Vec<Block>, u64) {
    let mut admin = Client::connect_endpoint(endpoint).expect("admin connect");
    let (probes, expected) = load_namespace(
        &mut admin, "bench", cfg.m_bits, cfg.shards, cfg.keys, cfg.probes, cfg.seed,
    );
    let positives = expected.iter().filter(|&&b| b).count() as u64;

    // Prebuilt rounds: `depth` QUERYs per block, cycling the probe list.
    let mut blocks = Vec::new();
    let mut at = 0usize;
    // One block per distinct starting offset at stride `depth` (the list
    // length is not required to divide evenly; blocks wrap).
    for _ in 0..probes.len().div_ceil(cfg.depth) {
        let mut request = Vec::new();
        let mut reply = Vec::new();
        for j in 0..cfg.depth {
            let idx = (at + j) % probes.len();
            request.extend_from_slice(b"QUERY bench ");
            request.extend_from_slice(probes[idx].as_bytes());
            request.extend_from_slice(b"\r\n");
            reply.extend_from_slice(verdict_bytes(expected[idx]));
        }
        blocks.push(Block {
            request,
            expected: reply,
            ops: cfg.depth as u64,
        });
        at = (at + cfg.depth) % probes.len();
    }
    (blocks, positives)
}

/// Mixed setup: two static query namespaces (`q0`, `q1`), two churn
/// namespaces (`c0`, `c1`). Each block pipelines an `MQUERY`, `QUERY`
/// runs, and insert-before-delete churn with exact expected replies.
fn setup_mixed(cfg: &ServerBenchConfig, endpoint: &Endpoint) -> Vec<Block> {
    let mut admin = Client::connect_endpoint(endpoint).expect("admin connect");
    let per_ns_keys = (cfg.keys / 2).max(64);
    let per_ns_probes = (cfg.probes / 2).max(32);
    let mut statics = Vec::new();
    for (i, ns) in ["q0", "q1"].into_iter().enumerate() {
        statics.push(load_namespace(
            &mut admin,
            ns,
            (cfg.m_bits / 2).max(1 << 12),
            cfg.shards,
            per_ns_keys,
            per_ns_probes,
            cfg.seed ^ (i as u64 + 1),
        ));
    }
    for ns in ["c0", "c1"] {
        let create = format!(
            "CREATE {ns} shbf-m {} 8 {} {} family=one-shot",
            (cfg.m_bits / 4).max(1 << 12),
            cfg.shards,
            cfg.seed
        );
        let reply = admin.send_expect_one(&create).expect("CREATE churn");
        assert_eq!(reply, "+OK", "CREATE {ns} failed: {reply}");
    }

    let (q0_probes, q0_expected) = &statics[0];
    let (q1_probes, q1_expected) = &statics[1];
    let nblocks = (per_ns_probes / 4).clamp(16, 512);
    let mut blocks = Vec::new();
    for b in 0..nblocks {
        let mut request = Vec::new();
        let mut reply = Vec::new();
        let mut ops = 0u64;
        let mut push = |req: String, exp: &[u8], ops: &mut u64| {
            request.extend_from_slice(req.as_bytes());
            request.extend_from_slice(b"\r\n");
            reply.extend_from_slice(exp);
            *ops += 1;
        };
        let q0 = |j: usize| (b * 7 + j) % q0_probes.len();
        let q1 = |j: usize| (b * 5 + j) % q1_probes.len();

        // One hand-built MQUERY batch over the first static namespace.
        let midx: Vec<usize> = (0..4).map(q0).collect();
        let mquery = format!(
            "MQUERY q0 {}",
            midx.iter()
                .map(|&i| q0_probes[i].as_str())
                .collect::<Vec<_>>()
                .join(" ")
        );
        let mut mreply = format!("*{}\r\n", midx.len()).into_bytes();
        for &i in &midx {
            mreply.extend_from_slice(verdict_bytes(q0_expected[i]));
        }
        push(mquery, &mreply, &mut ops);

        // Adjacent QUERY run on the second namespace (evented batches it).
        for j in 0..2 {
            let i = q1(j);
            push(
                format!("QUERY q1 {}", q1_probes[i]),
                verdict_bytes(q1_expected[i]),
                &mut ops,
            );
        }
        // Churn: insert-before-delete per block, so any interleaving
        // across clients keeps every DELETE preceded by an INSERT of the
        // same key — replies stay exactly `+OK`.
        push(format!("INSERT c0 churn-{b}-a"), b"+OK\r\n", &mut ops);
        for j in 2..4 {
            let i = q0(j);
            push(
                format!("QUERY q0 {}", q0_probes[i]),
                verdict_bytes(q0_expected[i]),
                &mut ops,
            );
        }
        push(format!("INSERT c1 churn-{b}-b"), b"+OK\r\n", &mut ops);
        for j in 2..4 {
            let i = q1(j);
            push(
                format!("QUERY q1 {}", q1_probes[i]),
                verdict_bytes(q1_expected[i]),
                &mut ops,
            );
        }
        push(format!("DELETE c0 churn-{b}-a"), b"+OK\r\n", &mut ops);
        push(format!("DELETE c1 churn-{b}-b"), b"+OK\r\n", &mut ops);

        blocks.push(Block {
            request,
            expected: reply,
            ops,
        });
    }
    blocks
}

/// Runs the client fleet against a live server; returns (total ops,
/// elapsed seconds).
fn drive_clients(
    cfg: &ServerBenchConfig,
    endpoint: &Endpoint,
    blocks: Arc<Vec<Block>>,
) -> (u64, f64) {
    drive_clients_multi(cfg, std::slice::from_ref(endpoint), blocks)
}

/// [`drive_clients`] over a fleet of interchangeable endpoints: client
/// `c` connects to `endpoints[c % len]`. With one endpoint this is the
/// classic single-server measurement; with a primary + replicas it is
/// the read-fanout measurement (every endpoint must answer the same
/// blocks byte-identically, which the per-round compare enforces).
pub(crate) fn drive_clients_multi(
    cfg: &ServerBenchConfig,
    endpoints: &[Endpoint],
    blocks: Arc<Vec<Block>>,
) -> (u64, f64) {
    let total_ops = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let deadline = start + Duration::from_millis(cfg.measure_ms);
    let clients = cfg.clients.max(1);
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let blocks = Arc::clone(&blocks);
            let total_ops = Arc::clone(&total_ops);
            let endpoint = endpoints[c % endpoints.len()].clone();
            std::thread::spawn(move || {
                let mut stream = endpoint.connect().expect("client connect");
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
                let mut buf = vec![0u8; blocks.iter().map(|b| b.expected.len()).max().unwrap()];
                // Stagger starting offsets so clients touch different
                // shards at any instant.
                let mut idx = (c * blocks.len() / clients) % blocks.len();
                let mut warmed = false;
                let mut ops = 0u64;
                loop {
                    if warmed && Instant::now() >= deadline {
                        break;
                    }
                    let block = &blocks[idx];
                    idx = (idx + 1) % blocks.len();
                    stream.write_all(&block.request).expect("client write");
                    let want = block.expected.len();
                    stream.read_exact(&mut buf[..want]).expect("client read");
                    assert_eq!(
                        &buf[..want],
                        &block.expected[..],
                        "reply bytes diverged from the precomputed expectation"
                    );
                    if warmed {
                        ops += block.ops;
                    } else {
                        // First round is warm-up (connection + page-in).
                        warmed = true;
                    }
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    (total_ops.load(Ordering::Relaxed), elapsed)
}

fn measure_query(cfg: &ServerBenchConfig, transport: TransportKind) -> TransportPoint {
    let (handle, endpoint) = start_server(cfg, transport, SocketKind::Tcp);
    let (blocks, positives) = setup_query(cfg, &endpoint);
    let blocks = Arc::new(blocks);
    let (ops, elapsed) = drive_clients(cfg, &endpoint, blocks);
    handle.shutdown().expect("server shutdown");
    TransportPoint {
        name: transport_name(transport),
        ops_per_sec: ops as f64 / elapsed,
        ops,
        positives,
    }
}

fn measure_mixed(
    cfg: &ServerBenchConfig,
    transport: TransportKind,
    socket: SocketKind,
) -> MixedPoint {
    let (handle, endpoint) = start_server(cfg, transport, socket);
    let blocks = Arc::new(setup_mixed(cfg, &endpoint));
    let (ops, elapsed) = drive_clients(cfg, &endpoint, blocks);
    handle.shutdown().expect("server shutdown");
    MixedPoint {
        transport: transport_name(transport),
        socket: socket.name(),
        ops_per_sec: ops as f64 / elapsed,
        ops,
    }
}

/// Runs both workloads and renders the `BENCH_server.json` document.
pub fn run(cfg: &ServerBenchConfig) -> (ServerBenchResult, String) {
    let threaded = measure_query(cfg, TransportKind::Threaded);
    let evented = measure_query(cfg, TransportKind::Evented);
    assert_eq!(
        threaded.positives, evented.positives,
        "transports disagree on probe verdicts"
    );
    let speedup = evented.ops_per_sec / threaded.ops_per_sec;

    let mut sockets = vec![SocketKind::Tcp];
    if cfg!(unix) {
        sockets.push(SocketKind::Unix);
    }
    let mut mixed = Vec::new();
    for &socket in &sockets {
        for transport in [TransportKind::Threaded, TransportKind::Evented] {
            mixed.push(measure_mixed(cfg, transport, socket));
        }
    }
    let mixed_speedup = {
        let by = |t: &str, s: &str| {
            mixed
                .iter()
                .find(|p| p.transport == t && p.socket == s)
                .map(|p| p.ops_per_sec)
                .unwrap_or(f64::NAN)
        };
        by("evented", "tcp") / by("threaded", "tcp")
    };
    let result = ServerBenchResult {
        transports: vec![threaded, evented],
        speedup_evented_vs_threaded: speedup,
        mixed,
        mixed_speedup_evented_vs_threaded: mixed_speedup,
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"server_throughput\",\n");
    json.push_str(&crate::harness::provenance_json_fields());
    json.push_str("  \"unit\": \"commands per second over real sockets\",\n");
    json.push_str(&format!("  \"clients\": {},\n", cfg.clients));
    json.push_str(&format!("  \"pipeline_depth\": {},\n", cfg.depth));
    json.push_str(&format!("  \"m_bits\": {},\n", cfg.m_bits));
    json.push_str(&format!("  \"shards\": {},\n", cfg.shards));
    json.push_str(&format!("  \"keys\": {},\n", cfg.keys));
    json.push_str(&format!("  \"probes\": {},\n", cfg.probes));
    json.push_str(&format!("  \"measure_ms\": {},\n", cfg.measure_ms));
    json.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    json.push_str("  \"family\": \"one-shot\",\n");
    json.push_str("  \"transports\": {\n");
    for (i, t) in result.transports.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"ops_per_sec\": {:.0}, \"ops\": {}, \"positives\": {} }}{}\n",
            t.name,
            t.ops_per_sec,
            t.ops,
            t.positives,
            if i + 1 < result.transports.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"speedup_evented_vs_threaded\": {:.2},\n",
        result.speedup_evented_vs_threaded
    ));
    json.push_str("  \"mixed\": {\n");
    json.push_str("    \"namespaces\": 4,\n");
    json.push_str("    \"workload\": \"MQUERY + QUERY runs + INSERT/DELETE churn\",\n");
    for (i, p) in result.mixed.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}_{}\": {{ \"ops_per_sec\": {:.0}, \"ops\": {} }}{}\n",
            p.transport,
            p.socket,
            p.ops_per_sec,
            p.ops,
            if i + 1 < result.mixed.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"mixed_speedup_evented_vs_threaded_tcp\": {:.2}\n",
        result.mixed_speedup_evented_vs_threaded
    ));
    json.push_str("}\n");
    (result, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServerBenchConfig {
        ServerBenchConfig {
            clients: 4,
            depth: 8,
            m_bits: 1 << 14,
            shards: 4,
            keys: 1 << 10,
            probes: 1 << 9,
            measure_ms: 40,
            ..ServerBenchConfig::default()
        }
    }

    #[test]
    fn tiny_run_measures_both_workloads() {
        let (result, json) = run(&tiny());
        assert_eq!(result.transports.len(), 2);
        for t in &result.transports {
            assert!(t.ops_per_sec > 0.0, "{} measured nothing", t.name);
        }
        let expected_mixed = if cfg!(unix) { 4 } else { 2 };
        assert_eq!(result.mixed.len(), expected_mixed);
        for p in &result.mixed {
            assert!(
                p.ops_per_sec > 0.0,
                "{}_{} measured nothing",
                p.transport,
                p.socket
            );
        }
        assert!(json.contains("\"server_throughput\""));
        assert!(json.contains("\"evented\""));
        assert!(json.contains("\"mixed\""));
        assert!(json.contains("\"evented_tcp\""));
        if cfg!(unix) {
            assert!(json.contains("\"evented_unix\""));
        }
    }
}
