//! Property suite for the wire-protocol parser and line framer.
//!
//! Three invariants keep the protocol session honest under adversarial
//! TCP segmentation:
//!
//! 1. **Chunking-invariance**: feeding a request stream to
//!    [`scan_line`] in arbitrary byte chunks produces exactly the same
//!    sequence of parse events (lines, oversize rejections) as handing
//!    it over in one shot — framing is a pure function of the buffered
//!    bytes, never of packet boundaries.
//! 2. **Total robustness**: [`parse_command`] never panics, for valid
//!    commands, random token soup, or raw bytes smashed through lossy
//!    UTF-8 — malformed input must come back as a parse error, not a
//!    crash that drops the connection.
//! 3. **One grammar**: the borrowed front-end [`parse_request`], whose
//!    keys the protocol session resolves in place, and the owned
//!    [`parse_command`] agree on every line — the same command with the
//!    same key bytes, or the same error text.

use proptest::collection::vec;
use proptest::prelude::*;

use shbf::server::{
    parse_command, parse_request, resolve_keys, scan_line, Command, Key, Request, Scan,
};

/// A parse event, as the protocol session would see it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Line(Vec<u8>),
    Oversize,
}

/// Runs the framing loop over `stream` delivered as `chunks` (byte
/// counts; the tail past their sum arrives as one final chunk), with
/// `eof` raised after the last byte — exactly the reactor's read/handle
/// cycle. Stops at the first oversize, as the transport closes there.
fn events_chunked(stream: &[u8], chunks: &[usize], max_line: usize) -> Vec<Event> {
    let mut events = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut delivered = 0usize;
    let mut boundaries: Vec<usize> = Vec::new();
    for &c in chunks {
        let next = (delivered + c).min(stream.len());
        if next > delivered {
            boundaries.push(next);
            delivered = next;
        }
    }
    if delivered < stream.len() {
        boundaries.push(stream.len());
    }
    if boundaries.is_empty() {
        boundaries.push(0);
    }
    let mut at = 0usize;
    for (i, &upto) in boundaries.iter().enumerate() {
        buf.extend_from_slice(&stream[at..upto]);
        at = upto;
        let eof = i + 1 == boundaries.len();
        loop {
            if buf.is_empty() {
                break;
            }
            match scan_line(&buf, eof, max_line) {
                Scan::Line { line, advance } => {
                    events.push(Event::Line(line.to_vec()));
                    buf.drain(..advance);
                }
                Scan::Incomplete => break,
                Scan::Oversize => {
                    events.push(Event::Oversize);
                    return events;
                }
            }
        }
    }
    events
}

/// Single-shot reference: the whole stream in one buffer with EOF.
fn events_single_shot(stream: &[u8], max_line: usize) -> Vec<Event> {
    events_chunked(stream, &[stream.len()], max_line)
}

/// Builds a request stream from fragments: a mix of plausible command
/// lines, random bytes, and bare terminators.
fn build_stream(fragments: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut s = Vec::new();
    for (kind, bytes) in fragments {
        match kind % 6 {
            0 => s.extend_from_slice(b"PING\r\n"),
            1 => {
                s.extend_from_slice(b"QUERY ns ");
                s.extend(bytes.iter().map(|b| b'a' + (b % 26)));
                s.push(b'\n');
            }
            2 => {
                s.extend_from_slice(b"MQUERY ns k1 k2 0x0aff");
                s.push(b'\n');
            }
            3 => s.extend_from_slice(bytes),
            4 => {
                s.extend_from_slice(bytes);
                s.push(b'\n');
            }
            _ => s.extend_from_slice(b"\r\n"),
        }
    }
    s
}

/// The owned command the borrowed front-end's answer denotes, with keys
/// resolved the way the evented transport resolves them (in place, `0x…`
/// keys through one reused decode buffer), or its error text.
fn via_borrowed_path(line: &str, hex: &mut Vec<u8>) -> Result<Command, String> {
    let mut slices: Vec<&[u8]> = Vec::new();
    match parse_request(line).map_err(|e| e.to_string())? {
        Request::Query { ns, key } => {
            resolve_keys(std::iter::once(key), hex, &mut slices);
            Ok(Command::Query {
                ns: ns.to_owned(),
                key: slices[0].to_vec(),
            })
        }
        Request::MQuery { ns, keys } => {
            let len = keys.len();
            resolve_keys(keys, hex, &mut slices);
            assert_eq!(slices.len(), len, "`{line}`: key count");
            Ok(Command::MQuery {
                ns: ns.to_owned(),
                keys: slices.iter().map(|k| k.to_vec()).collect(),
            })
        }
        Request::Command(cmd) => {
            assert!(
                !matches!(cmd, Command::Query { .. } | Command::MQuery { .. }),
                "`{line}`: read verbs must come back borrowed"
            );
            Ok(cmd)
        }
    }
}

/// A key token plus the bytes it must decode to (`None`: the token is
/// malformed and the line must fail).
fn key_token(kind: u8, bytes: &[u8]) -> (String, Option<Vec<u8>>) {
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    match kind % 9 {
        0 | 1 => {
            let plain: String = bytes.iter().map(|b| (b'a' + b % 26) as char).collect();
            let plain = if plain.is_empty() { "k".into() } else { plain };
            let expect = plain.clone().into_bytes();
            (plain, Some(expect))
        }
        2 if !bytes.is_empty() => (format!("0x{hex}"), Some(bytes.to_vec())),
        3 if !bytes.is_empty() => (format!("0x{}", hex.to_uppercase()), Some(bytes.to_vec())),
        4 => (format!("0x{hex}a"), None),
        5 => ("0xzz".into(), None),
        6 => ("0x".into(), None),
        7 => ("0x+a".into(), None),
        8 => ("0x\u{20ac}a".into(), None),
        // Empty `bytes` for the hex kinds: a plain key that merely
        // looks like hex.
        _ => (
            "0xlooks-like-hex".into(),
            Some(b"0xlooks-like-hex".to_vec()),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary QUERY/MQUERY-shaped lines (mixed-case verbs, hex and
    /// malformed keys, bad namespaces, wrong arity, runs of whitespace,
    /// trailing `\r`) parse to the same command with the same key bytes,
    /// or the same error, through both front doors; well-formed keys
    /// decode to the bytes they were built from.
    #[test]
    fn borrowed_front_end_agrees_with_parse_command(
        verb in 0u8..8,
        ns_kind in 0u8..6,
        keys in vec((any::<u8>(), vec(any::<u8>(), 0..6)), 0..6),
        seps in vec(0u8..4, 1..8),
        crlf in any::<bool>(),
    ) {
        let verb = ["QUERY", "query", "QuErY", "MQUERY", "mquery", "MqUeRy", "INSERT", "BOGUS"]
            [verb as usize];
        let ns = match ns_kind {
            0..=2 => "flows".to_string(),
            3 => "b@d".to_string(),
            4 => "n".repeat(129),
            _ => "a.b:c-d_e".to_string(),
        };
        let sep = |i: usize| [" ", "  ", "\t", " \t "][seps[i % seps.len()] as usize];
        let mut line = format!("{verb}{}{ns}", sep(0));
        let mut expected = Vec::new();
        for (i, (kind, bytes)) in keys.iter().enumerate() {
            let (token, expect) = key_token(*kind, bytes);
            line.push_str(sep(i + 1));
            line.push_str(&token);
            expected.push(expect);
        }
        if crlf {
            line.push('\r');
        }

        let mut hex = Vec::new();
        let owned = parse_command(&line).map_err(|e| e.to_string());
        let borrowed = via_borrowed_path(&line, &mut hex);
        prop_assert_eq!(&borrowed, &owned, "`{}`", line.escape_debug());

        // Where the line is well formed, the keys are the built bytes.
        let keys_of = |cmd: &Command| match cmd {
            Command::Query { key, .. } => vec![key.clone()],
            Command::MQuery { keys, .. } => keys.clone(),
            _ => Vec::new(),
        };
        if let Ok(cmd) = &owned {
            let want: Vec<Vec<u8>> = expected.iter().flatten().cloned().collect();
            if matches!(cmd, Command::Query { .. } | Command::MQuery { .. }) {
                prop_assert_eq!(keys_of(cmd), want);
            }
        }
        if expected.iter().any(Option::is_none) && ns_kind < 3 {
            prop_assert!(owned.is_err(), "`{}` has a malformed key", line.escape_debug());
        }
    }

    /// Key tokens alone: the borrowed [`Key`] and its in-place resolution
    /// decode exactly what the owned decoder does.
    #[test]
    fn key_tokens_resolve_like_owned_decoding(
        keys in vec((any::<u8>(), vec(any::<u8>(), 0..6)), 1..8),
    ) {
        let tokens: Vec<String> = keys.iter().map(|(k, b)| key_token(*k, b).0).collect();
        let parsed: Result<Vec<Key>, _> = tokens.iter().map(|t| Key::parse(t)).collect();
        let owned: Result<Vec<Vec<u8>>, _> =
            tokens.iter().map(|t| shbf::server::protocol::decode_key(t)).collect();
        match (parsed, owned) {
            (Ok(parsed), Ok(owned)) => {
                let mut hex = Vec::new();
                let mut slices = Vec::new();
                resolve_keys(parsed.iter().copied(), &mut hex, &mut slices);
                let resolved: Vec<Vec<u8>> = slices.iter().map(|s| s.to_vec()).collect();
                prop_assert_eq!(&resolved, &owned);
                let copied: Vec<Vec<u8>> = parsed.iter().map(|k| k.to_vec()).collect();
                prop_assert_eq!(copied, owned);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "disagree on {:?}: {:?} vs {:?}", tokens, a, b),
        }
    }

    /// Arbitrary chunkings of arbitrary byte streams yield the same
    /// events as single-shot framing, for generous and tiny line caps.
    #[test]
    fn chunked_framing_equals_single_shot(
        fragments in vec((any::<u8>(), vec(any::<u8>(), 0..24)), 0..12),
        chunks in vec(1usize..40, 0..32),
        cap_select in 0usize..3,
    ) {
        let stream = build_stream(&fragments);
        // Small caps make Oversize reachable; the large cap never is.
        let max_line = [16usize, 64, 1 << 20][cap_select];
        let chunked = events_chunked(&stream, &chunks, max_line);
        let single = events_single_shot(&stream, max_line);
        prop_assert_eq!(
            chunked, single,
            "chunking changed parse events (cap {}, stream {:?})",
            max_line, stream
        );
    }

    /// Every framed line parses to the same result however the stream
    /// was chunked, and parse_command never panics on any of it.
    #[test]
    fn parsed_commands_are_chunking_invariant(
        fragments in vec((any::<u8>(), vec(any::<u8>(), 0..24)), 0..10),
        chunks in vec(1usize..23, 0..24),
    ) {
        let stream = build_stream(&fragments);
        let parse_all = |events: &[Event]| -> Vec<Option<String>> {
            events
                .iter()
                .map(|e| match e {
                    Event::Oversize => None,
                    Event::Line(line) => {
                        let text = String::from_utf8_lossy(line);
                        let trimmed = text.trim_end_matches(['\r', '\n']);
                        Some(match parse_command(trimmed) {
                            Ok(cmd) => format!("{cmd:?}"),
                            Err(e) => format!("ERR {e}"),
                        })
                    }
                })
                .collect()
        };
        let chunked = parse_all(&events_chunked(&stream, &chunks, 1 << 20));
        let single = parse_all(&events_single_shot(&stream, 1 << 20));
        prop_assert_eq!(chunked, single);
    }

    /// Raw byte soup through lossy UTF-8 never panics the parser.
    #[test]
    fn parse_command_is_total_on_arbitrary_bytes(
        bytes in vec(any::<u8>(), 0..96),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_command(&text);
    }

    /// Structured-ish token soup (verbs, numbers, hex keys, family
    /// selectors in random positions) never panics either — it parses
    /// or errors.
    #[test]
    fn parse_command_is_total_on_token_soup(
        picks in vec((0u8..12, any::<u32>()), 0..8),
    ) {
        let mut line = String::new();
        for (i, (kind, n)) in picks.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            match kind {
                0 => line.push_str("CREATE"),
                1 => line.push_str("QUERY"),
                2 => line.push_str("MINSERT"),
                3 => line.push_str("ns"),
                4 => line.push_str("shbf-m"),
                5 => line.push_str(&n.to_string()),
                6 => line.push_str("0xzz"),
                7 => line.push_str(&format!("0x{n:08x}")),
                8 => line.push_str("family=one-shot"),
                9 => line.push_str("family=bogus"),
                10 => line.push_str("  "),
                _ => line.push_str("SHUTDOWN"),
            }
        }
        let _ = parse_command(&line);
    }
}
