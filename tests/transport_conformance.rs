//! Transport-conformance harness: every transport, one wire truth.
//!
//! A table of scripted sessions (pipelined query runs, `MINSERT`
//! bulk-loads, oversize lines, UTF-8 garbage, abrupt disconnects
//! mid-line, backpressure floods) is replayed against **threaded TCP,
//! evented TCP, threaded UNIX, and evented UNIX** servers, and every
//! response stream must be byte-identical across all of them — the
//! acceptance gate for the reactor's edge-triggered readiness, vectored
//! writev flushing, and UNIX-socket listener being invisible on the
//! wire. It extends `tests/protocol_segmentation.rs`'s
//! split-at-every-boundary replay to the new writev path and both socket
//! families, and pins down the eventfd-shutdown contract: bounded
//! latency (no poll-timeout stall) with in-flight replies flushed before
//! close.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shbf::server::{Client, Endpoint, Engine, Server, ServerConfig, ServerHandle, TransportKind};

/// One transport × socket combination under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    ThreadedTcp,
    EventedTcp,
    ThreadedUnix,
    EventedUnix,
}

impl Case {
    fn transport(self) -> TransportKind {
        match self {
            Case::ThreadedTcp | Case::ThreadedUnix => TransportKind::Threaded,
            Case::EventedTcp | Case::EventedUnix => TransportKind::Evented,
        }
    }

    fn is_unix(self) -> bool {
        matches!(self, Case::ThreadedUnix | Case::EventedUnix)
    }
}

/// All cases this platform can run (UNIX sockets need a UNIX target).
fn cases() -> Vec<Case> {
    let mut all = vec![Case::ThreadedTcp, Case::EventedTcp];
    if cfg!(unix) {
        all.push(Case::ThreadedUnix);
        all.push(Case::EventedUnix);
    }
    all
}

static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

fn start_with(case: Case, config: ServerConfig) -> ServerHandle {
    let engine = Arc::new(Engine::new());
    let server = if case.is_unix() {
        #[cfg(unix)]
        {
            let path = std::env::temp_dir().join(format!(
                "shbf-conformance-{}-{}.sock",
                std::process::id(),
                SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            Server::bind_unix(path, engine, config).unwrap()
        }
        #[cfg(not(unix))]
        unreachable!("unix cases are filtered out on non-unix targets")
    } else {
        Server::bind("127.0.0.1:0", engine, config).unwrap()
    };
    server.spawn().unwrap()
}

fn start(case: Case) -> ServerHandle {
    start_with(
        case,
        ServerConfig {
            transport: case.transport(),
            ..ServerConfig::default()
        },
    )
}

/// Creates the namespaces the scripts exercise. Scripts are replayable:
/// their mutations (re-`INSERT`/`MINSERT` of the same keys) never change
/// any reply a later replay reads.
fn seed_state(endpoint: &Endpoint) {
    let mut c = Client::connect_endpoint(endpoint).unwrap();
    for cmd in [
        "CREATE flows shbf-m 140000 8 4 7",
        "CREATE sizes shbf-x 8192 6 30 3",
        "CREATE assoc shbf-a 8192 6 5",
        "INSERT flows seg-a",
        "INSERT sizes hot",
        "INSERT sizes hot",
        "INSERT assoc file-1 1",
    ] {
        let reply = c.send_expect_one(cmd).unwrap();
        assert!(!reply.starts_with('-'), "seed `{cmd}` failed: {reply}");
    }
}

/// The main conformance script: pipelined query runs (the protocol
/// session batches them), `MINSERT` bulk-load feeding the new writev
/// path, namespace switches, every backend, interleaved errors, blank
/// lines. Ends in QUIT so `read_to_end` terminates deterministically.
fn main_script() -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(b"PING\r\n");
    s.extend_from_slice(b"MINSERT flows b-1 b-2 b-3\n");
    s.extend_from_slice(b"QUERY flows b-1\nQUERY flows b-2\nQUERY flows b-3\n");
    s.extend_from_slice(b"QUERY flows seg-a\nQUERY flows miss-1\n");
    s.extend_from_slice(b"QUERY assoc file-1\n");
    s.extend_from_slice(b"QUERY sizes hot\n");
    s.extend_from_slice(b"MQUERY flows b-1 miss-2 0x0aff\n");
    s.extend_from_slice(b"COUNT sizes hot\r\n");
    s.extend_from_slice(b"ASSOC assoc file-1\n");
    s.extend_from_slice(b"QUERY flows seg-a\nBOGUS x y\nQUERY flows seg-a\n");
    s.extend_from_slice(b"QUERY ghost nope\nMINSERT sizes a\n");
    s.extend_from_slice(b"\n\r\n   \r\n");
    s.extend_from_slice(b"STATS ghost\n");
    s.extend_from_slice(b"QUIT\r\n");
    s
}

/// QUERY runs whose keys are `0x…` tokens, mixed with plain keys, in
/// both hex cases and in one run with an explicit `MQUERY` of the same
/// keys (the protocol session decodes them into one reused buffer).
fn hex_key_script() -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(b"MINSERT flows 0x0aff 0x00 h-1 0x7365672d62\n");
    s.extend_from_slice(b"QUERY flows 0x0aff\nQUERY flows h-1\nQUERY flows 0x0AFF\n");
    s.extend_from_slice(b"QUERY flows 0x7365672d61\nQUERY flows seg-b\nQUERY flows 0x00\n");
    s.extend_from_slice(b"QUERY flows 0xdead\nQUERY flows 0x0aff00\nquery flows 0x00\n");
    s.extend_from_slice(b"MQUERY flows 0x0aff h-1 0x00 0xbeef seg-a 0x7365672d62\n");
    s.extend_from_slice(b"QUERY sizes 0x686f74\nQUERY sizes hot\n");
    s.extend_from_slice(b"QUIT\r\n");
    s
}

/// QUERY runs that hop between namespaces (every kind, plus an unknown
/// one) so groups flush on each switch.
fn namespace_switch_script() -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(b"QUERY flows seg-a\nQUERY sizes hot\nQUERY sizes cold\n");
    s.extend_from_slice(b"QUERY flows seg-a\nQUERY flows miss\nQUERY assoc file-1\n");
    s.extend_from_slice(b"QUERY ghost a\nQUERY ghost b\nQUERY flows seg-a\n");
    s.extend_from_slice(b"QUERY  flows \t seg-a\r\nQuErY sizes hot\nQUERY flows seg-a\n");
    s.extend_from_slice(b"QUIT\n");
    s
}

/// Error lines in the middle of QUERY runs: malformed keys (including a
/// multi-byte character inside a hex token), bad namespaces, wrong
/// arity, unknown verbs, and a bad key inside an `MQUERY`.
fn error_mid_run_script() -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(b"QUERY flows seg-a\nQUERY flows 0xzz\nQUERY flows seg-a\n");
    s.extend_from_slice(b"QUERY flows 0x1\nQUERY flows 0x\nQUERY flows 0x+a\n");
    s.extend_from_slice("QUERY flows 0x\u{20ac}a\nQUERY flows seg-a\n".as_bytes());
    s.extend_from_slice(b"QUERY b@d seg-a\nQUERY flows\nQUERY flows a b\nQUERY flows seg-a\n");
    s.extend_from_slice(b"MQUERY flows seg-a 0xzz\nQUERY flows seg-a\nNOPE flows\n");
    s.extend_from_slice(b"QUERY flows seg-a\n\n   \nQUERY flows seg-a\n");
    s.extend_from_slice(b"QUIT\n");
    s
}

/// Writes `segments` with a pause between them, half-closes, reads to
/// EOF.
fn drive(endpoint: &Endpoint, segments: &[&[u8]], pause: Duration) -> Vec<u8> {
    let mut s = endpoint.connect().unwrap();
    s.set_nodelay(true).unwrap();
    for (i, seg) in segments.iter().enumerate() {
        if i > 0 && !pause.is_zero() {
            std::thread::sleep(pause);
        }
        s.write_all(seg).unwrap();
        s.flush().unwrap();
    }
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = Vec::new();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.read_to_end(&mut out).unwrap();
    out
}

#[test]
fn scripted_sessions_are_byte_identical_across_all_transports() {
    struct Script {
        name: &'static str,
        bytes: Vec<u8>,
        seeded: bool,
    }
    let oversize = vec![b'x'; (1 << 20) + 2];
    let mut utf8 = b"PING\n".to_vec();
    utf8.extend_from_slice(&[0xff, 0xfe]);
    utf8.extend_from_slice(b"\nPING\n");
    let scripts = [
        Script {
            name: "pipelined_mixed",
            bytes: main_script(),
            seeded: true,
        },
        Script {
            name: "query_runs_with_hex_keys",
            bytes: hex_key_script(),
            seeded: true,
        },
        Script {
            name: "query_runs_switching_namespace",
            bytes: namespace_switch_script(),
            seeded: true,
        },
        Script {
            name: "query_runs_broken_by_error_lines",
            bytes: error_mid_run_script(),
            seeded: true,
        },
        Script {
            name: "unterminated_tail",
            bytes: b"PING\nPING".to_vec(),
            seeded: false,
        },
        Script {
            name: "utf8_garbage",
            bytes: utf8,
            seeded: false,
        },
        Script {
            name: "oversize_line",
            bytes: oversize,
            seeded: false,
        },
    ];
    for script in &scripts {
        let mut streams: Vec<(Case, Vec<u8>)> = Vec::new();
        for case in cases() {
            let handle = start(case);
            if script.seeded {
                seed_state(handle.endpoint());
            }
            let got = drive(handle.endpoint(), &[&script.bytes], Duration::ZERO);
            assert!(!got.is_empty(), "{case:?}: `{}` got no reply", script.name);
            streams.push((case, got));
            handle.shutdown().unwrap();
        }
        let (ref_case, reference) = &streams[0];
        for (case, got) in &streams[1..] {
            assert_eq!(
                String::from_utf8_lossy(got),
                String::from_utf8_lossy(reference),
                "`{}`: {case:?} diverges from {ref_case:?}",
                script.name
            );
        }
    }
}

#[test]
fn evented_writev_path_survives_every_split_point_on_tcp_and_unix() {
    // Reference stream from the portable threaded transport.
    let reference = {
        let handle = start(Case::ThreadedTcp);
        seed_state(handle.endpoint());
        let r = drive(handle.endpoint(), &[&main_script()], Duration::ZERO);
        handle.shutdown().unwrap();
        r
    };
    let script = main_script();
    let mut evented = vec![Case::EventedTcp];
    if cfg!(unix) {
        evented.push(Case::EventedUnix);
    }
    for case in evented {
        let handle = start(case);
        seed_state(handle.endpoint());
        for i in 1..script.len() {
            let got = drive(
                handle.endpoint(),
                &[&script[..i], &script[i..]],
                Duration::from_millis(2),
            );
            assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&reference),
                "{case:?}: divergence when split at byte {i}"
            );
        }
        handle.shutdown().unwrap();
    }
}

#[test]
fn partial_line_survives_a_pause_past_the_read_timeout() {
    // The threaded driver polls its socket with a 200 ms read timeout. A
    // request line whose halves straddle a few of those timeouts must be
    // kept buffered across them: answered once, whole, in order.
    for case in cases() {
        let handle = start(case);
        seed_state(handle.endpoint());
        let got = drive(
            handle.endpoint(),
            &[b"QUERY flows se", b"g-a\r\nPING\r\n"],
            Duration::from_millis(450),
        );
        assert_eq!(
            String::from_utf8_lossy(&got),
            ":1\r\n+PONG\r\n",
            "{case:?}: split line lost or mangled across read timeouts"
        );
        handle.shutdown().unwrap();
    }
}

#[test]
fn abrupt_disconnect_mid_line_leaves_the_server_serving() {
    for case in cases() {
        let handle = start(case);
        seed_state(handle.endpoint());
        {
            let mut s = handle.endpoint().connect().unwrap();
            s.write_all(b"PING\n").unwrap();
            let mut pong = [0u8; 7];
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.read_exact(&mut pong).unwrap();
            assert_eq!(&pong, b"+PONG\r\n", "{case:?}");
            // Half a request line, then vanish without a half-close.
            s.write_all(b"QUERY flows se").unwrap();
            drop(s);
        }
        // The server must shrug it off and keep answering.
        let mut c = Client::connect_endpoint(handle.endpoint()).unwrap();
        assert_eq!(
            c.send("QUERY flows seg-a").unwrap(),
            vec![":1".to_string()],
            "{case:?}: server unhealthy after abrupt disconnect"
        );
        handle.shutdown().unwrap();
    }
}

/// Reads `STATS transport` into (field, value) pairs.
fn transport_stats(endpoint: &Endpoint) -> std::collections::HashMap<String, u64> {
    let mut c = Client::connect_endpoint(endpoint).unwrap();
    let lines = c.send("STATS transport").unwrap();
    assert!(lines[0].starts_with('*'), "not an array: {lines:?}");
    lines[1..]
        .iter()
        .map(|l| {
            let kv = l.strip_prefix('+').expect("simple string field");
            let (k, v) = kv.split_once('=').expect("field=value");
            (k.to_string(), v.parse::<u64>().expect("numeric value"))
        })
        .collect()
}

#[test]
fn backpressure_soak_keeps_replies_exact_and_counts_pause_resume() {
    // STATS amplifies ~20x (short request, long reply), so a pipelined
    // flood outruns kernel socket buffering and trips the (tiny)
    // high-water mark while the client deliberately reads nothing.
    let mut soak_cases = vec![Case::EventedTcp];
    if cfg!(unix) {
        soak_cases.push(Case::EventedUnix);
    }
    for case in soak_cases {
        let handle = start_with(
            case,
            ServerConfig {
                transport: case.transport(),
                write_high_water: 1 << 12,
                ..ServerConfig::default()
            },
        );
        seed_state(handle.endpoint());
        // The two alternating STATS replies differ, so any reply loss or
        // reordering breaks the exact byte comparison below.
        let mut admin = Client::connect_endpoint(handle.endpoint()).unwrap();
        let one_flows = admin.send("STATS flows").unwrap();
        let one_sizes = admin.send("STATS sizes").unwrap();
        drop(admin);
        let frame = |lines: &[String]| {
            let mut v = Vec::new();
            for l in lines {
                v.extend_from_slice(l.as_bytes());
                v.extend_from_slice(b"\r\n");
            }
            v
        };
        let rounds = 120_000usize;
        let mut request = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..rounds {
            request.extend_from_slice(b"STATS flows\r\nSTATS sizes\r\n");
            expected.extend_from_slice(&frame(&one_flows));
            expected.extend_from_slice(&frame(&one_sizes));
        }
        let mut s = handle.endpoint().connect().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let writer = std::thread::spawn({
            let mut w = s.try_clone().unwrap();
            move || {
                w.write_all(&request).unwrap();
                w.shutdown(std::net::Shutdown::Write).unwrap();
            }
        });
        // Slow reader: read nothing until the server has demonstrably
        // crossed the high-water mark and paused this connection (a side
        // connection polls the live counters), so the assertions below
        // don't race the server's reply generation.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if transport_stats(handle.endpoint())["backpressure_enter"] >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut got = Vec::new();
        s.read_to_end(&mut got).unwrap();
        writer.join().unwrap();
        assert_eq!(got.len(), expected.len(), "{case:?}: reply bytes lost");
        assert_eq!(got, expected, "{case:?}: replies corrupted or reordered");

        let stats = transport_stats(handle.endpoint());
        assert!(
            stats["backpressure_enter"] >= 1,
            "{case:?}: pause never counted: {stats:?}"
        );
        assert!(
            stats["backpressure_exit"] >= 1,
            "{case:?}: resume at half-mark never counted: {stats:?}"
        );
        assert!(
            stats["write_queue_high_water"] > 1 << 12,
            "{case:?}: high-water mark not observed: {stats:?}"
        );
        handle.shutdown().unwrap();
    }
}

#[test]
fn eventfd_shutdown_is_bounded_and_flushes_in_flight_replies() {
    // Regression: the evented transport used to observe shutdown only on
    // its epoll-wait timeout. With the eventfd waker the loops block with
    // NO timeout — if the wakeup were lost, this join would hang forever,
    // and any poll-timeout reintroduction shows up as latency.
    for case in [Case::EventedTcp, Case::ThreadedTcp] {
        let handle = start(case);
        seed_state(handle.endpoint());
        // In-flight replies — including the SHUTDOWN farewell — must all
        // be flushed before the connection closes.
        let mut c = Client::connect_endpoint(handle.endpoint()).unwrap();
        let replies = c
            .send_pipelined(&["PING", "QUERY flows seg-a", "QUERY flows seg-a", "SHUTDOWN"])
            .unwrap();
        assert_eq!(replies[0], vec!["+PONG"], "{case:?}");
        assert_eq!(replies[1], vec![":1"], "{case:?}");
        assert_eq!(replies[2], vec![":1"], "{case:?}");
        assert_eq!(replies[3], vec!["+BYE"], "{case:?}: farewell not flushed");
        let started = Instant::now();
        handle.shutdown().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{case:?}: shutdown stalled {:?}",
            started.elapsed()
        );
    }

    // Idle-server variant: loops are parked in a timeout-less epoll_wait
    // with an idle connection; only the waker can end the join.
    let handle = start(Case::EventedTcp);
    let _idle = handle.endpoint().connect().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    handle.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "idle shutdown stalled {:?} — eventfd wakeup lost",
        started.elapsed()
    );
}

#[test]
fn stats_transport_counts_traffic_on_every_transport() {
    for case in cases() {
        let handle = start(case);
        seed_state(handle.endpoint());
        let mut c = Client::connect_endpoint(handle.endpoint()).unwrap();
        assert_eq!(c.send("QUERY flows seg-a").unwrap(), vec![":1".to_string()]);
        drop(c);
        let stats = transport_stats(handle.endpoint());
        for field in [
            "accepted",
            "closed",
            "live",
            "bytes_in",
            "bytes_out",
            "backpressure_enter",
            "backpressure_exit",
            "write_queue_high_water",
            "wakeups",
        ] {
            assert!(stats.contains_key(field), "{case:?}: missing {field}");
        }
        // The seed connection, the query connection, and this STATS
        // connection all count.
        assert!(stats["accepted"] >= 2, "{case:?}: {stats:?}");
        assert!(stats["bytes_in"] > 0, "{case:?}: {stats:?}");
        assert!(stats["bytes_out"] > 0, "{case:?}: {stats:?}");
        handle.shutdown().unwrap();
    }
}
