//! End-to-end tracing tests: `/trace` scraped over HTTP under pipelined
//! load and validated as strict Chrome trace-event JSON (span trees,
//! parent/child interval containment), WAL append/fsync spans on a
//! durable primary, the `TRACE` admin verb, slow-trace capture into
//! `SLOWLOG`, replica apply spans linked to the primary's trace, and
//! the zero-recording guarantee with sampling off.
//!
//! Trace sampling is process-global (each server boot sets it), so
//! every test here serializes on [`SERIAL`].

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shbf::server::{Client, Engine, Server, ServerConfig, ServerHandle, TransportKind};

static SERIAL: Mutex<()> = Mutex::new(());

fn start(config: ServerConfig) -> (ServerHandle, SocketAddr, Option<SocketAddr>) {
    let engine = Arc::new(Engine::new());
    let server = Server::bind("127.0.0.1:0", engine, config).unwrap();
    let metrics_addr = server.metrics_addr();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    (handle, addr, metrics_addr)
}

/// One HTTP GET against the observability endpoint: `(head, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body split");
    (head.to_string(), body.to_string())
}

// ---------------------------------------------------------------------
// A strict, dependency-free JSON parser. Numbers keep their raw text so
// `ts`/`dur` (microseconds with a nanosecond fraction) can be compared
// exactly as integer nanoseconds — f64 loses sub-microsecond precision
// at epoch magnitudes.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
    fn num(&self) -> &str {
        match self {
            Json::Num(s) => s,
            other => panic!("expected number, got {other:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        }
    }
}

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> JsonParser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn peek(&self) -> u8 {
        *self.b.get(self.i).unwrap_or_else(|| {
            panic!("unexpected end of JSON at byte {}", self.i);
        })
    }
    fn eat(&mut self, c: u8) {
        assert_eq!(
            self.peek(),
            c,
            "expected `{}` at byte {}, got `{}`",
            c as char,
            self.i,
            self.peek() as char
        );
        self.i += 1;
    }
    fn literal(&mut self, word: &str) {
        assert!(
            self.b[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
    }
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.peek();
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.peek();
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4]).unwrap();
                            let code = u32::from_str_radix(hex, 16).expect("bad \\u escape");
                            self.i += 4;
                            out.push(char::from_u32(code).expect("bad codepoint"));
                        }
                        other => panic!("bad escape `\\{}`", other as char),
                    }
                }
                c if c < 0x20 => panic!("raw control byte {c:#x} in string"),
                c => {
                    // Reassemble multi-byte UTF-8 sequences.
                    let start = self.i - 1;
                    let len = match c {
                        c if c < 0x80 => 1,
                        c if c >= 0xF0 => 4,
                        c if c >= 0xE0 => 3,
                        _ => 2,
                    };
                    self.i = start + len;
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).unwrap());
                }
            }
        }
    }
    fn number(&mut self) -> String {
        let start = self.i;
        if self.peek() == b'-' {
            self.i += 1;
        }
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
            )
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i])
            .unwrap()
            .to_string();
        text.parse::<f64>()
            .unwrap_or_else(|_| panic!("unparsable number `{text}`"));
        text
    }
    fn value(&mut self) -> Json {
        self.ws();
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut pairs = Vec::new();
                self.ws();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Obj(pairs);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.ws();
                    self.eat(b':');
                    let value = self.value();
                    assert!(
                        !pairs.iter().any(|(k, _)| *k == key),
                        "duplicate key `{key}`"
                    );
                    pairs.push((key, value));
                    self.ws();
                    match self.peek() {
                        b',' => self.eat(b','),
                        b'}' => {
                            self.eat(b'}');
                            return Json::Obj(pairs);
                        }
                        other => panic!("expected `,` or `}}`, got `{}`", other as char),
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                self.ws();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    match self.peek() {
                        b',' => self.eat(b','),
                        b']' => {
                            self.eat(b']');
                            return Json::Arr(items);
                        }
                        other => panic!("expected `,` or `]`, got `{}`", other as char),
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.literal("true");
                Json::Bool(true)
            }
            b'f' => {
                self.literal("false");
                Json::Bool(false)
            }
            b'n' => {
                self.literal("null");
                Json::Null
            }
            _ => Json::Num(self.number()),
        }
    }
}

fn parse_json(text: &str) -> Json {
    let mut p = JsonParser {
        b: text.as_bytes(),
        i: 0,
    };
    let value = p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing bytes after JSON document");
    value
}

/// `"1754640000123456.789"` (µs with ns fraction) → exact nanoseconds.
fn ns_of(num_text: &str) -> u128 {
    let (whole, frac) = num_text.split_once('.').unwrap_or((num_text, ""));
    let whole: u128 = whole.parse().unwrap_or_else(|_| {
        panic!("ts/dur must be a non-negative decimal, got `{num_text}`");
    });
    assert!(
        frac.len() <= 3 && frac.chars().all(|c| c.is_ascii_digit()),
        "ts/dur fraction must be up to 3 digits, got `{num_text}`"
    );
    let frac_ns: u128 = format!("{frac:0<3}").parse().unwrap();
    whole * 1_000 + frac_ns
}

/// One validated trace event.
#[derive(Debug)]
struct Event {
    name: String,
    ts_ns: u128,
    dur_ns: u128,
    trace_id: u64,
    span: usize,
    parent: Option<usize>,
    args: HashMap<String, String>,
}

/// Validates a `/trace` body strictly as Chrome trace-event JSON (the
/// object form): every event complete (`ph == "X"`), `cat == "shbf"`,
/// span indices unique per trace, exactly one parentless root per
/// trace, every parent reference valid and opened before its child, and
/// every child interval contained in its parent's — compared exactly in
/// integer nanoseconds. Returns the events for further assertions.
fn validate_chrome_trace(body: &str) -> Vec<Event> {
    let doc = parse_json(body);
    assert_eq!(
        doc.get("displayTimeUnit").expect("displayTimeUnit").str(),
        "ms"
    );
    let mut events = Vec::new();
    for raw in doc.get("traceEvents").expect("traceEvents").arr() {
        assert_eq!(raw.get("ph").expect("ph").str(), "X", "{raw:?}");
        assert_eq!(raw.get("cat").expect("cat").str(), "shbf", "{raw:?}");
        raw.get("pid").expect("pid").num();
        raw.get("tid").expect("tid").num();
        let args = raw.get("args").expect("args");
        let trace_id = u64::from_str_radix(args.get("trace_id").expect("trace_id").str(), 16)
            .expect("trace_id is lowercase hex");
        let span: usize = args.get("span").expect("span").num().parse().unwrap();
        let parent = args
            .get("parent")
            .map(|p| p.num().parse::<usize>().unwrap());
        let mut attrs = HashMap::new();
        if let Json::Obj(pairs) = args {
            for (k, v) in pairs {
                if let Json::Str(s) = v {
                    attrs.insert(k.clone(), s.clone());
                }
            }
        }
        events.push(Event {
            name: raw.get("name").expect("name").str().to_string(),
            ts_ns: ns_of(raw.get("ts").expect("ts").num()),
            dur_ns: ns_of(raw.get("dur").expect("dur").num()),
            trace_id,
            span,
            parent,
            args: attrs,
        });
    }

    // Per-trace tree checks.
    let mut by_trace: HashMap<u64, Vec<&Event>> = HashMap::new();
    for e in &events {
        by_trace.entry(e.trace_id).or_default().push(e);
    }
    for (trace_id, mut spans) in by_trace {
        spans.sort_by_key(|e| e.span);
        for (i, e) in spans.iter().enumerate() {
            assert_eq!(e.span, i, "trace {trace_id:x}: span indices not dense");
        }
        let roots = spans.iter().filter(|e| e.parent.is_none()).count();
        assert_eq!(roots, 1, "trace {trace_id:x}: want exactly one root");
        assert!(
            spans[0].parent.is_none(),
            "trace {trace_id:x}: span 0 must be the root"
        );
        for e in &spans[1..] {
            let parent = spans[e.parent.unwrap_or_else(|| {
                panic!(
                    "trace {trace_id:x}: non-root span {} without parent",
                    e.span
                )
            })];
            assert!(
                parent.span < e.span,
                "trace {trace_id:x}: parent {} not opened before child {}",
                parent.span,
                e.span
            );
            assert!(
                e.ts_ns >= parent.ts_ns && e.ts_ns + e.dur_ns <= parent.ts_ns + parent.dur_ns,
                "trace {trace_id:x}: span {} `{}` [{}, {}] escapes parent {} `{}` [{}, {}]",
                e.span,
                e.name,
                e.ts_ns,
                e.ts_ns + e.dur_ns,
                parent.span,
                parent.name,
                parent.ts_ns,
                parent.ts_ns + parent.dur_ns
            );
        }
    }
    events
}

#[test]
fn trace_scrape_under_pipelined_load_is_valid_chrome_json() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, addr, metrics_addr) = start(ServerConfig {
        transport: TransportKind::Evented,
        metrics_addr: Some("127.0.0.1:0".into()),
        trace_sample: 1,
        ..ServerConfig::default()
    });
    let metrics_addr = metrics_addr.unwrap();

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client
            .send_expect_one("CREATE flows shbf-m 140000 8")
            .unwrap(),
        "+OK"
    );
    let mut batch: Vec<String> = Vec::new();
    for i in 0..50 {
        batch.push(format!("INSERT flows key-{i}"));
    }
    batch.push("MQUERY flows key-1 key-2 nope-1".into());
    batch.push("STATS flows".into());
    for i in 0..100 {
        // Adjacent pipelined QUERYs coalesce on either transport;
        // trailing the pipeline, the group flushes at buffer drain and
        // is traced as one request with a `batch` attr.
        batch.push(format!("QUERY flows key-{i}"));
    }
    let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
    let replies = client.send_pipelined(&refs).unwrap();
    assert_eq!(replies.len(), refs.len());

    let (head, body) = http_get(metrics_addr, "/trace");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("Content-Type: application/json"), "{head}");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .unwrap();
    assert_eq!(content_length, body.len(), "Content-Length mismatch");

    let events = validate_chrome_trace(&body);
    assert!(!events.is_empty(), "no events recorded at 1in1 sampling");
    for name in ["request", "parse", "dispatch", "engine"] {
        assert!(
            events.iter().any(|e| e.name == name),
            "missing `{name}` span in:\n{body}"
        );
    }
    // The coalesced query group rode as one traced batch.
    assert!(
        events
            .iter()
            .any(|e| e.name == "request" && e.args.contains_key("batch")),
        "no batched query-group trace in:\n{body}"
    );

    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn wal_mutation_traced_end_to_end_and_replica_links_primary_trace() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!(
        "shbf-trace-wal-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();

    let (primary, primary_addr, primary_metrics) = start(ServerConfig {
        wal_dir: Some(dir.clone()),
        fsync: shbf::server::FsyncPolicy::Always,
        metrics_addr: Some("127.0.0.1:0".into()),
        trace_sample: 1,
        ..ServerConfig::default()
    });
    let (replica, replica_addr, replica_metrics) = start(ServerConfig {
        replica_of: Some(primary_addr.to_string()),
        metrics_addr: Some("127.0.0.1:0".into()),
        trace_sample: 1,
        ..ServerConfig::default()
    });

    let mut client = Client::connect(primary_addr).unwrap();
    assert_eq!(
        client
            .send_expect_one("CREATE flows shbf-m 65536 8")
            .unwrap(),
        "+OK"
    );
    for i in 0..10 {
        assert_eq!(
            client
                .send_expect_one(&format!("INSERT flows key-{i}"))
                .unwrap(),
            "+OK"
        );
    }

    // Wait for the replica to apply the tail.
    let mut replica_client = Client::connect(replica_addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = replica_client
            .send_expect_one("QUERY flows key-9")
            .unwrap_or_else(|_| ":0".into());
        if reply == ":1" {
            break;
        }
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The primary's JSON: a mutation traced through transport, engine,
    // WAL append, and fsync — in one tree.
    let (_, primary_body) = http_get(primary_metrics.unwrap(), "/trace");
    let primary_events = validate_chrome_trace(&primary_body);
    let insert_trace = primary_events
        .iter()
        .find(|e| e.name == "wal_fsync")
        .unwrap_or_else(|| panic!("no wal_fsync span in:\n{primary_body}"))
        .trace_id;
    let tree: Vec<&str> = primary_events
        .iter()
        .filter(|e| e.trace_id == insert_trace)
        .map(|e| e.name.as_str())
        .collect();
    for name in ["request", "dispatch", "engine", "wal_append", "wal_fsync"] {
        assert!(
            tree.contains(&name),
            "mutation trace {insert_trace:x} missing `{name}`: {tree:?}"
        );
    }

    // The replica's JSON: apply batches whose root carries the
    // primary's PULLOPS trace id — and that id is a real trace on the
    // primary.
    let (_, replica_body) = http_get(replica_metrics.unwrap(), "/trace");
    let replica_events = validate_chrome_trace(&replica_body);
    let batch_root = replica_events
        .iter()
        .find(|e| e.name == "replica_apply_batch" && e.args.contains_key("primary_trace"))
        .unwrap_or_else(|| panic!("no linked replica_apply_batch in:\n{replica_body}"));
    assert!(
        replica_events
            .iter()
            .any(|e| e.trace_id == batch_root.trace_id && e.name == "apply"),
        "batch trace {:x} has no apply span",
        batch_root.trace_id
    );
    let primary_trace =
        u64::from_str_radix(&batch_root.args["primary_trace"], 16).expect("hex trace id");
    let (_, primary_body) = http_get(primary_metrics.unwrap(), "/trace");
    let primary_events = validate_chrome_trace(&primary_body);
    assert!(
        primary_events.iter().any(|e| e.trace_id == primary_trace),
        "replica links primary trace {primary_trace:x}, absent from the primary's ring"
    );

    drop(client);
    drop(replica_client);
    replica.shutdown().unwrap();
    primary.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_verb_round_trip() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, addr, _) = start(ServerConfig {
        trace_sample: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.send_expect_one("CREATE t shbf-m 65536 8").unwrap(),
        "+OK"
    );
    assert_eq!(client.send_expect_one("INSERT t alpha").unwrap(), "+OK");
    assert_eq!(client.send_expect_one("QUERY t alpha").unwrap(), ":1");

    let len: u64 = client
        .send_expect_one("TRACE LEN")
        .unwrap()
        .trim_start_matches(':')
        .parse()
        .unwrap();
    assert!(len >= 3, "want >= 3 recorded traces, got {len}");

    // Entries are `<hex id> <unix secs> <duration µs> <spans> <root>`.
    let lines = client.send("TRACE GET 5").unwrap();
    assert!(lines[0].starts_with('*'), "{lines:?}");
    assert!(lines.len() >= 2, "TRACE GET returned nothing: {lines:?}");
    for entry in &lines[1..] {
        let fields: Vec<&str> = entry.trim_start_matches('+').split(' ').collect();
        assert_eq!(fields.len(), 5, "entry shape: {entry}");
        u64::from_str_radix(fields[0], 16).expect("hex trace id");
        fields[1].parse::<u64>().expect("unix seconds");
        fields[2].parse::<u64>().expect("duration µs");
        let spans: usize = fields[3].parse().expect("span count");
        assert!(spans >= 1, "empty trace in {entry}");
        assert_eq!(fields[4], "request", "root span name: {entry}");
    }

    assert_eq!(client.send_expect_one("TRACE RESET").unwrap(), "+OK");
    let len: u64 = client
        .send_expect_one("TRACE LEN")
        .unwrap()
        .trim_start_matches(':')
        .parse()
        .unwrap();
    // The RESET's own trace publishes after its reply, so the ring is
    // nearly — not exactly — empty.
    assert!(len <= 2, "ring should be nearly empty after RESET: {len}");

    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn slow_request_retains_trace_and_slowlog_carries_phases() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, addr, metrics_addr) = start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        trace_sample: 1,
        slowlog_us: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.send_expect_one("CREATE s shbf-m 262144 8").unwrap(),
        "+OK"
    );
    let minsert = format!(
        "MINSERT s {}",
        (0..4000)
            .map(|i| format!("key-{i}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    assert_eq!(client.send_expect_one(&minsert).unwrap(), ":4000");

    let lines = client.send("SLOWLOG GET 10").unwrap();
    assert!(lines.len() >= 2, "MINSERT should be logged: {lines:?}");
    let newest = &lines[1];
    let fields: Vec<&str> = newest.trim_start_matches('+').splitn(9, ' ').collect();
    assert_eq!(fields.len(), 9, "entry shape: {newest}");
    let trace_id = fields[3]
        .strip_prefix("trace=")
        .expect("trace column")
        .to_string();
    assert_ne!(trace_id, "-", "traced request must carry its id: {newest}");
    u64::from_str_radix(&trace_id, 16).expect("hex trace id");
    let phase = |field: &str, name: &str| -> u64 {
        field
            .strip_prefix(&format!("{name}="))
            .unwrap_or_else(|| panic!("bad {name} column in {newest}"))
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be numeric on a traced entry: {newest}"))
    };
    let parse_us = phase(fields[4], "parse");
    let engine_us = phase(fields[5], "engine");
    let wal_us = phase(fields[6], "wal");
    let write_us = phase(fields[7], "write");
    assert!(engine_us >= 1, "4000-key MINSERT engine phase: {newest}");
    assert_eq!(wal_us, 0, "no WAL on this server: {newest}");
    // parse/write phases exist (numeric), whatever they rounded to.
    let _ = (parse_us, write_us);
    assert_eq!(fields[8], "MINSERT s (4000 keys)", "summary: {newest}");

    // The retained slow trace is findable in the exported JSON.
    let (_, body) = http_get(metrics_addr.unwrap(), "/trace");
    let events = validate_chrome_trace(&body);
    let id = u64::from_str_radix(&trace_id, 16).unwrap();
    assert!(
        events.iter().any(|e| e.trace_id == id),
        "slowlog trace {trace_id} missing from /trace"
    );

    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn sampling_off_records_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, addr, metrics_addr) = start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        trace_sample: 0,
        slowlog_us: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.send_expect_one("CREATE z shbf-m 65536 8").unwrap(),
        "+OK"
    );
    for i in 0..20 {
        client
            .send_expect_one(&format!("INSERT z key-{i}"))
            .unwrap();
    }
    let minsert = format!(
        "MINSERT z {}",
        (0..2000)
            .map(|i| format!("bulk-{i}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    assert_eq!(client.send_expect_one(&minsert).unwrap(), ":2000");

    assert_eq!(client.send_expect_one("TRACE LEN").unwrap(), ":0");
    let (head, body) = http_get(metrics_addr.unwrap(), "/trace");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let doc = parse_json(&body);
    assert!(
        doc.get("traceEvents")
            .expect("traceEvents")
            .arr()
            .is_empty(),
        "sampling off must record zero spans: {body}"
    );
    // Slow entries still log, but without a trace.
    let lines = client.send("SLOWLOG GET 5").unwrap();
    assert!(lines.len() >= 2, "{lines:?}");
    assert!(
        lines[1..].iter().all(|l| l.contains(" trace=- ")),
        "untraced entries must show trace=-: {lines:?}"
    );

    drop(client);
    handle.shutdown().unwrap();
}
