//! Loopback integration tests for the set-query daemon: concurrent TCP
//! clients drive create/insert/query/mquery against a live server, assert
//! the no-false-negative guarantee end to end, and exercise the
//! snapshot → restart → re-query lifecycle the server's persistence
//! promises.

use std::net::SocketAddr;
use std::sync::Arc;

use shbf::server::{Client, Engine, Server, ServerConfig, TransportKind};

fn start_server() -> (shbf::server::ServerHandle, SocketAddr) {
    start_server_with(TransportKind::Threaded)
}

fn start_server_with(transport: TransportKind) -> (shbf::server::ServerHandle, SocketAddr) {
    let engine = Arc::new(Engine::new());
    let config = ServerConfig {
        transport,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", engine, config).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    (handle, addr)
}

fn expect_ok(client: &mut Client, command: &str) {
    let reply = client.send_expect_one(command).unwrap();
    assert!(
        reply.starts_with("+OK"),
        "`{command}` replied `{reply}`, expected +OK"
    );
}

#[test]
fn four_concurrent_clients_no_false_negatives() {
    let (handle, addr) = start_server();

    // One client creates the shared namespace.
    let mut admin = Client::connect(addr).unwrap();
    expect_ok(&mut admin, "CREATE flows shbf-m 400000 8 8 2016");

    const CLIENTS: u64 = 4;
    const KEYS_PER_CLIENT: u64 = 2_000;

    // Phase 1: four clients insert disjoint key ranges concurrently.
    let inserters: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in (c * KEYS_PER_CLIENT)..((c + 1) * KEYS_PER_CLIENT) {
                    let reply = client
                        .send_expect_one(&format!("INSERT flows key-{i}"))
                        .unwrap();
                    assert_eq!(reply, "+OK", "insert key-{i}");
                }
            })
        })
        .collect();
    for t in inserters {
        t.join().unwrap();
    }

    // Phase 2: four clients each verify the FULL key space (including the
    // ranges other clients inserted) via single queries and batches.
    let verifiers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let total = CLIENTS * KEYS_PER_CLIENT;
                // Stagger starting offsets so clients hit different shards.
                for step in 0..total {
                    let i = (step + c * KEYS_PER_CLIENT) % total;
                    let reply = client
                        .send_expect_one(&format!("QUERY flows key-{i}"))
                        .unwrap();
                    assert_eq!(reply, ":1", "false negative on key-{i} (client {c})");
                }
                // Batched form: 64-key MQUERYs across the whole range.
                for chunk_start in (0..total).step_by(64) {
                    let keys: Vec<String> = (chunk_start..(chunk_start + 64).min(total))
                        .map(|i| format!("key-{i}"))
                        .collect();
                    let lines = client
                        .send(&format!("MQUERY flows {}", keys.join(" ")))
                        .unwrap();
                    assert_eq!(lines[0], format!("*{}", keys.len()));
                    for (j, line) in lines[1..].iter().enumerate() {
                        assert_eq!(
                            line,
                            ":1",
                            "false negative in MQUERY at key-{}",
                            chunk_start + j as u64
                        );
                    }
                }
            })
        })
        .collect();
    for t in verifiers {
        t.join().unwrap();
    }

    // STATS reflects the live hit counters: 4 clients × (8000 single +
    // 8000 batched) = 64000 hits, zero misses so far.
    let stats = admin.send("STATS flows").unwrap().join("\n");
    assert!(stats.contains("+hits=64000"), "stats:\n{stats}");
    assert!(stats.contains("+misses=0"), "stats:\n{stats}");
    assert!(stats.contains("+inserts=8000"), "stats:\n{stats}");
    assert!(stats.contains("+kind=shbf-m"), "stats:\n{stats}");

    handle.shutdown().unwrap();
}

#[test]
fn evented_concurrent_pipelined_clients_no_false_negatives() {
    let (handle, addr) = start_server_with(TransportKind::Evented);

    let mut admin = Client::connect(addr).unwrap();
    expect_ok(
        &mut admin,
        "CREATE flows shbf-m 400000 8 8 2016 family=one-shot",
    );
    // Bulk-load through MINSERT (the shard-grouped insert pipeline).
    const TOTAL: u64 = 8_000;
    for chunk_start in (0..TOTAL).step_by(500) {
        let keys: Vec<String> = (chunk_start..chunk_start + 500)
            .map(|i| format!("key-{i}"))
            .collect();
        let reply = admin
            .send_expect_one(&format!("MINSERT flows {}", keys.join(" ")))
            .unwrap();
        assert_eq!(reply, ":500");
    }

    // Four clients verify the whole key space with pipelined QUERYs (the
    // evented transport groups these into shard-batched rides) plus
    // MQUERY batches, concurrently.
    let verifiers: Vec<_> = (0..4u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for chunk_start in (0..TOTAL).step_by(64) {
                    let queries: Vec<String> = (chunk_start..(chunk_start + 64).min(TOTAL))
                        .map(|i| format!("QUERY flows key-{}", (i + c * 2000) % TOTAL))
                        .collect();
                    for (j, reply) in client
                        .send_pipelined(&queries)
                        .unwrap()
                        .into_iter()
                        .enumerate()
                    {
                        assert_eq!(
                            reply,
                            vec![":1".to_string()],
                            "false negative (client {c}, chunk {chunk_start}, offset {j})"
                        );
                    }
                }
                for chunk_start in (0..TOTAL).step_by(64) {
                    let keys: Vec<String> = (chunk_start..(chunk_start + 64).min(TOTAL))
                        .map(|i| format!("key-{i}"))
                        .collect();
                    let lines = client
                        .send(&format!("MQUERY flows {}", keys.join(" ")))
                        .unwrap();
                    assert_eq!(lines[0], format!("*{}", keys.len()));
                    assert!(
                        lines[1..].iter().all(|l| l == ":1"),
                        "MQUERY false negative"
                    );
                }
            })
        })
        .collect();
    for t in verifiers {
        t.join().unwrap();
    }

    // Counters: MINSERT recorded 8000 inserts; the pipelined QUERYs and
    // MQUERYs recorded 4 × (8000 + 8000) hits.
    let stats = admin.send("STATS flows").unwrap().join("\n");
    assert!(stats.contains("+inserts=8000"), "stats:\n{stats}");
    assert!(stats.contains("+hits=64000"), "stats:\n{stats}");
    assert!(stats.contains("+misses=0"), "stats:\n{stats}");

    handle.shutdown().unwrap();
}

#[test]
fn snapshot_survives_server_restart() {
    let dir = std::env::temp_dir().join(format!("shbf-server-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("world.snap");
    let snap_str = snap.display().to_string();

    // ---- First server lifetime: build state, snapshot, shut down.
    let (handle, addr) = start_server();
    let mut c = Client::connect(addr).unwrap();
    expect_ok(&mut c, "CREATE flows shbf-m 200000 8 4 7");
    expect_ok(&mut c, "CREATE sizes shbf-x 32768 6 40 7");
    expect_ok(&mut c, "CREATE gw shbf-a 32768 6 7");
    for i in 0..1_000 {
        assert_eq!(
            c.send_expect_one(&format!("INSERT flows key-{i}")).unwrap(),
            "+OK"
        );
    }
    for _ in 0..3 {
        c.send("INSERT sizes hot-flow").unwrap();
    }
    expect_ok(&mut c, "INSERT gw replicated 1");
    expect_ok(&mut c, "INSERT gw replicated 2");
    expect_ok(&mut c, "INSERT gw only-first 1");
    let assoc_before = c.send_expect_one("ASSOC gw replicated").unwrap();
    assert_eq!(c.send_expect_one("QUERY flows key-7").unwrap(), ":1");

    let reply = c.send_expect_one(&format!("SNAPSHOT {snap_str}")).unwrap();
    assert_eq!(reply, "+OK 3 namespaces");
    // SHUTDOWN stops the daemon remotely.
    assert_eq!(c.send_expect_one("SHUTDOWN").unwrap(), "+BYE");
    handle.shutdown().unwrap();

    // ---- Second server lifetime: fresh engine, LOAD, verify everything.
    let (handle2, addr2) = start_server();
    let mut c2 = Client::connect(addr2).unwrap();
    assert!(
        c2.send_expect_one("QUERY flows key-7")
            .unwrap()
            .starts_with("-ERR"),
        "fresh server should not know the namespace"
    );
    let reply = c2.send_expect_one(&format!("LOAD {snap_str}")).unwrap();
    assert_eq!(reply, "+OK 3 namespaces");

    let listing = c2.send("NAMESPACES").unwrap();
    assert_eq!(
        listing,
        vec![
            "*3".to_string(),
            "+flows shbf-m".to_string(),
            "+gw shbf-a".to_string(),
            "+sizes shbf-x".to_string(),
        ]
    );
    for i in 0..1_000 {
        assert_eq!(
            c2.send_expect_one(&format!("QUERY flows key-{i}")).unwrap(),
            ":1",
            "restored server lost key-{i}"
        );
    }
    assert_eq!(c2.send_expect_one("COUNT sizes hot-flow").unwrap(), ":3");
    assert_eq!(
        c2.send_expect_one("ASSOC gw replicated").unwrap(),
        assoc_before,
        "association region changed across restart"
    );
    // Hit/miss counters were persisted and keep counting.
    let stats = c2.send("STATS flows").unwrap().join("\n");
    assert!(stats.contains("+hits=1001"), "stats:\n{stats}");
    // Deletes still work after restore (counting filters survived).
    assert_eq!(c2.send_expect_one("DELETE flows key-0").unwrap(), "+OK");

    handle2.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    let (handle, addr) = start_server();
    let mut c = Client::connect(addr).unwrap();

    assert!(c
        .send_expect_one("NONSENSE a b")
        .unwrap()
        .starts_with("-ERR"));
    assert!(c
        .send_expect_one("QUERY ghost key")
        .unwrap()
        .starts_with("-ERR"));
    assert!(
        c.send_expect_one("CREATE bad shbf-m 100000 7")
            .unwrap()
            .starts_with("-ERR"),
        "odd k must be rejected"
    );
    // The same connection still serves valid traffic afterwards.
    assert_eq!(c.send_expect_one("PING").unwrap(), "+PONG");
    expect_ok(&mut c, "CREATE ok shbf-m 100000 8");
    expect_ok(&mut c, "INSERT ok 0xdeadbeef");
    assert_eq!(c.send_expect_one("QUERY ok 0xdeadbeef").unwrap(), ":1");
    // Duplicate CREATE is an error; namespace content is untouched.
    assert!(c
        .send_expect_one("CREATE ok shbf-m 100000 8")
        .unwrap()
        .starts_with("-ERR"));
    assert_eq!(c.send_expect_one("QUERY ok 0xdeadbeef").unwrap(), ":1");
    // QUIT closes only this connection; the server stays up.
    assert_eq!(c.send_expect_one("QUIT").unwrap(), "+BYE");
    let mut c2 = Client::connect(addr).unwrap();
    assert_eq!(c2.send_expect_one("QUERY ok 0xdeadbeef").unwrap(), ":1");

    handle.shutdown().unwrap();
}

/// A CREATE whose arrays no host could back, or whose `k` would cost a
/// hash seed per position, is refused with `-ERR` before anything is
/// allocated. The server keeps serving on both transports.
#[test]
fn unallocatable_create_is_refused_and_the_server_keeps_serving() {
    for transport in [TransportKind::Threaded, TransportKind::Evented] {
        let (handle, addr) = start_server_with(transport);
        let mut c = Client::connect(addr).unwrap();
        for hostile in [
            "CREATE big shbf-m 1000000000000000 8",
            "CREATE big shbf-m 18446744073709551615 8 1",
            "CREATE big shbf-x 1000 8 18446744073709551615",
            "CREATE big shbf-a 1000000000000000 8",
            "CREATE big multiset 1000000000000000 8 8",
            "CREATE big shbf-m 100000 1000000000000000",
        ] {
            let reply = c.send_expect_one(hostile).unwrap();
            assert!(
                reply.starts_with("-ERR"),
                "{transport:?}: `{hostile}` replied `{reply}`"
            );
            assert_eq!(c.send_expect_one("PING").unwrap(), "+PONG");
        }
        let reply = c
            .send_expect_one("CREATE big shbf-m 1000000000000000 8")
            .unwrap();
        assert!(reply.contains("cannot allocate"), "{reply}");
        // No half-built namespace was left behind, and normal service
        // continues on a fresh connection.
        let mut c2 = Client::connect(addr).unwrap();
        assert!(c2
            .send_expect_one("QUERY big key")
            .unwrap()
            .starts_with("-ERR"));
        expect_ok(&mut c2, "CREATE big shbf-m 100000 8");
        expect_ok(&mut c2, "INSERT big key");
        assert_eq!(c2.send_expect_one("QUERY big key").unwrap(), ":1");
        assert_eq!(c2.send_expect_one("QUERY big nope").unwrap(), ":0");
        handle.shutdown().unwrap();
    }
}
