//! Protocol framing under adversarial TCP segmentation.
//!
//! TCP gives no message boundaries: a pipelined request stream can arrive
//! split at any byte, one byte at a time, or all at once. Both transports
//! must produce **byte-identical response streams** for every
//! segmentation — this is the acceptance gate for the protocol session's
//! pipelined parsing (grouped queries, one write per drained read) being
//! invisible on the wire.
//!
//! Method: one fixed command script (mixed LF/CRLF, adjacent QUERY runs,
//! namespace switches, MQUERY, errors, blank lines) is replayed against a
//! live server split at **every** byte boundary, plus one-byte-at-a-time
//! and all-at-once, for both transports; every response stream must equal
//! the unsegmented reference, and the references must agree across
//! transports.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use shbf::server::{Client, Engine, Server, ServerConfig, ServerHandle, TransportKind};

fn start(transport: TransportKind) -> (ServerHandle, SocketAddr) {
    let engine = Arc::new(Engine::new());
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            transport,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    (handle, addr)
}

/// Creates the namespaces the replayed script queries. Only run once per
/// server: the script itself is idempotent (its INSERTs re-insert the
/// same membership key, which never changes any reply it reads).
fn seed_state(addr: SocketAddr) {
    let mut c = Client::connect(addr).unwrap();
    for cmd in [
        "CREATE flows shbf-m 140000 8 4 7",
        "CREATE sizes shbf-x 8192 6 30 3",
        "CREATE assoc shbf-a 8192 6 5",
        "INSERT sizes hot",
        "INSERT sizes hot",
        "INSERT assoc file-1 1",
    ] {
        let reply = c.send_expect_one(cmd).unwrap();
        assert!(!reply.starts_with('-'), "seed `{cmd}` failed: {reply}");
    }
}

/// The replayed script. Ends in QUIT so the server closes the connection
/// and `read_to_end` terminates deterministically.
fn script() -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(b"PING\r\n"); // CRLF
    s.extend_from_slice(b"INSERT flows seg-a\n"); // LF
    s.extend_from_slice(b"QUERY flows seg-a\r\n");
    // An adjacent run of QUERYs (the protocol session batches these).
    s.extend_from_slice(b"QUERY flows seg-a\nQUERY flows miss-1\nQUERY flows miss-2\n");
    // Namespace switch mid-run, then a different-backend query.
    s.extend_from_slice(b"QUERY assoc file-1\n");
    s.extend_from_slice(b"QUERY sizes hot\n");
    s.extend_from_slice(b"MQUERY flows seg-a miss-3 0x0aff\n");
    s.extend_from_slice(b"COUNT sizes hot\r\n");
    s.extend_from_slice(b"ASSOC assoc file-1\n");
    // Errors interleaved with a query run: unknown verb, unknown
    // namespace (splits the run), type error.
    s.extend_from_slice(b"QUERY flows seg-a\nBOGUS x y\nQUERY flows seg-a\n");
    s.extend_from_slice(b"QUERY ghost nope\nQUERY flows seg-a\n");
    s.extend_from_slice(b"COUNT flows seg-a\n");
    // Blank and whitespace-only lines (skipped vs. "empty command").
    s.extend_from_slice(b"\n\r\n   \r\n");
    s.extend_from_slice(b"STATS ghost\n");
    s.extend_from_slice(b"QUIT\r\n");
    s
}

/// Writes `segments` with a pause between them (defeating loopback
/// coalescing often enough to matter), half-closes, reads to EOF.
fn drive(addr: SocketAddr, segments: &[&[u8]], pause: Duration) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
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

fn reference_for(transport: TransportKind) -> (ServerHandle, SocketAddr, Vec<u8>) {
    let (handle, addr) = start(transport);
    seed_state(addr);
    let reference = drive(addr, &[&script()], Duration::ZERO);
    assert!(!reference.is_empty());
    (handle, addr, reference)
}

#[test]
fn responses_agree_across_transports_unsegmented() {
    let (h1, _, threaded) = reference_for(TransportKind::Threaded);
    let (h2, _, evented) = reference_for(TransportKind::Evented);
    assert_eq!(
        String::from_utf8_lossy(&threaded),
        String::from_utf8_lossy(&evented),
        "transports disagree on the reference stream"
    );
    h1.shutdown().unwrap();
    h2.shutdown().unwrap();
}

fn split_at_every_boundary(transport: TransportKind) {
    let (handle, addr, reference) = reference_for(transport);
    let script = script();
    for i in 1..script.len() {
        let got = drive(
            addr,
            &[&script[..i], &script[i..]],
            Duration::from_millis(2),
        );
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&reference),
            "{transport:?}: divergence when split at byte {i}"
        );
    }
    handle.shutdown().unwrap();
}

#[test]
fn threaded_survives_every_split_point() {
    split_at_every_boundary(TransportKind::Threaded);
}

#[test]
fn evented_survives_every_split_point() {
    split_at_every_boundary(TransportKind::Evented);
}

#[test]
fn one_byte_at_a_time_matches_the_reference() {
    for transport in [TransportKind::Threaded, TransportKind::Evented] {
        let (handle, addr, reference) = reference_for(transport);
        let script = script();
        let singles: Vec<&[u8]> = script.chunks(1).collect();
        let got = drive(addr, &singles, Duration::from_micros(300));
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&reference),
            "{transport:?}: one-byte-at-a-time diverged"
        );
        handle.shutdown().unwrap();
    }
}

#[test]
fn unterminated_final_line_is_served_at_eof() {
    let mut streams = Vec::new();
    for transport in [TransportKind::Threaded, TransportKind::Evented] {
        let (handle, addr) = start(transport);
        let got = drive(addr, &[b"PING\nPING"], Duration::ZERO);
        assert_eq!(
            got, b"+PONG\r\n+PONG\r\n",
            "{transport:?}: EOF tail not served"
        );
        streams.push(got);
        handle.shutdown().unwrap();
    }
    assert_eq!(streams[0], streams[1]);
}

#[test]
fn invalid_utf8_gets_one_error_then_close_on_both_transports() {
    let mut streams = Vec::new();
    for transport in [TransportKind::Threaded, TransportKind::Evented] {
        let (handle, addr) = start(transport);
        // Valid line, then garbage; anything after the garbage line is
        // dead — the connection closes after the error reply.
        let got = drive(addr, &[b"PING\n\xff\xfe\nPING\n"], Duration::ZERO);
        let text = String::from_utf8_lossy(&got).into_owned();
        assert!(text.starts_with("+PONG\r\n-ERR"), "{transport:?}: {text}");
        assert!(text.contains("UTF-8"), "{transport:?}: {text}");
        assert!(
            !text.ends_with("+PONG\r\n"),
            "{transport:?} served past close"
        );
        streams.push(got);
        handle.shutdown().unwrap();
    }
    assert_eq!(streams[0], streams[1], "transports disagree on UTF-8 error");
}

#[test]
fn oversized_line_is_rejected_while_the_peer_keeps_the_socket_open() {
    // Regression: the cap must fire from the byte budget alone — no EOF,
    // no write pause — otherwise a peer streaming newline-free bytes
    // grows the line buffer without bound.
    for transport in [TransportKind::Threaded, TransportKind::Evented] {
        let (handle, addr) = start(transport);
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        // Exactly the over-cap budget, so the server consumes every byte
        // (clean close, no RST) but must still reject.
        let huge = vec![b'y'; (1 << 20) + 2];
        s.write_all(&huge).unwrap();
        // Write side stays open: the reply must arrive anyway.
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) => panic!("{transport:?}: no oversize reply without EOF: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&got).into_owned();
        assert!(
            text.starts_with("-ERR protocol: request line exceeds"),
            "{transport:?}: {text}"
        );
        handle.shutdown().unwrap();
    }
}

#[test]
fn oversized_request_lines_are_rejected_identically() {
    let mut streams = Vec::new();
    for transport in [TransportKind::Threaded, TransportKind::Evented] {
        let (handle, addr) = start(transport);
        // 1 MiB + 2 bytes, never a newline: both transports must answer
        // with the oversize error and close.
        let huge = vec![b'x'; (1 << 20) + 2];
        let got = drive(addr, &[&huge], Duration::ZERO);
        let text = String::from_utf8_lossy(&got).into_owned();
        assert!(
            text.starts_with("-ERR protocol: request line exceeds"),
            "{transport:?}: {text}"
        );
        streams.push(got);
        handle.shutdown().unwrap();
    }
    assert_eq!(streams[0], streams[1], "transports disagree on oversize");
}
