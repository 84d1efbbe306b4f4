//! End-to-end observability tests: a live server scraped over HTTP while
//! clients drive load, a strict validator for the Prometheus text
//! exposition (format 0.0.4), and the `SLOWLOG` / `STATS server` wire
//! commands.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use shbf::server::{Client, Engine, Server, ServerConfig, TransportKind};

/// Starts a threaded server with the metrics endpoint on an ephemeral
/// port.
fn start_observable(slowlog_us: u64) -> (shbf::server::ServerHandle, SocketAddr, SocketAddr) {
    start_observable_on(TransportKind::Threaded, slowlog_us)
}

/// [`start_observable`] on a chosen transport.
fn start_observable_on(
    transport: TransportKind,
    slowlog_us: u64,
) -> (shbf::server::ServerHandle, SocketAddr, SocketAddr) {
    let engine = Arc::new(Engine::new());
    let config = ServerConfig {
        transport,
        metrics_addr: Some("127.0.0.1:0".into()),
        slowlog_us,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", engine, config).unwrap();
    let metrics_addr = server.metrics_addr().expect("metrics endpoint configured");
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    assert_eq!(handle.metrics_addr(), Some(metrics_addr));
    (handle, addr, metrics_addr)
}

/// One HTTP/1.0-style scrape: request, full response, split head/body.
fn scrape(metrics_addr: SocketAddr, method: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(metrics_addr).unwrap();
    stream
        .write_all(format!("{method} {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body split");
    (head.to_string(), body.to_string())
}

/// Validates the whole exposition body, strictly:
///
/// * every line is a `# HELP`, `# TYPE`, or a parsable sample;
/// * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`;
/// * `# HELP`/`# TYPE` precede all of their family's samples, and appear
///   exactly once per family;
/// * no duplicate series (same name + same label set);
/// * every histogram is cumulative, `+Inf`-terminated, and its `+Inf`
///   bucket equals its `_count`.
fn validate_exposition(body: &str) {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    /// Splits `name{labels} value` (labels optional); returns (name, labels, value).
    fn parse_sample(line: &str) -> (String, String, f64) {
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: `{line}`");
        });
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparsable sample value in `{line}`");
        });
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest.strip_suffix('}').unwrap_or_else(|| {
                    panic!("unterminated label set in `{line}`");
                });
                // Each label is name="value" with any `\` / `"` escaped.
                for label in split_labels(labels) {
                    let (lname, lvalue) = label
                        .split_once('=')
                        .unwrap_or_else(|| panic!("label without `=` in `{line}`"));
                    assert!(valid_name(lname), "bad label name `{lname}` in `{line}`");
                    assert!(
                        lvalue.starts_with('"') && lvalue.ends_with('"') && lvalue.len() >= 2,
                        "unquoted label value in `{line}`"
                    );
                    let inner = &lvalue[1..lvalue.len() - 1];
                    let mut chars = inner.chars();
                    while let Some(c) = chars.next() {
                        match c {
                            '\\' => {
                                let e = chars.next().expect("dangling escape");
                                assert!(
                                    matches!(e, '\\' | '"' | 'n'),
                                    "bad escape `\\{e}` in `{line}`"
                                );
                            }
                            '"' | '\n' => panic!("unescaped `{c}` in `{line}`"),
                            _ => {}
                        }
                    }
                }
                (name.to_string(), labels.to_string())
            }
            None => (series.to_string(), String::new()),
        };
        assert!(valid_name(&name), "bad metric name `{name}` in `{line}`");
        (name, labels, value)
    }
    /// Splits a label body on commas not inside quotes.
    fn split_labels(labels: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut current = String::new();
        let mut in_quotes = false;
        let mut escaped = false;
        for c in labels.chars() {
            if escaped {
                current.push(c);
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_quotes => {
                    current.push(c);
                    escaped = true;
                }
                '"' => {
                    current.push(c);
                    in_quotes = !in_quotes;
                }
                ',' if !in_quotes => out.push(std::mem::take(&mut current)),
                _ => current.push(c),
            }
        }
        if !current.is_empty() {
            out.push(current);
        }
        out
    }
    /// The family a sample belongs to (histogram suffixes fold in).
    fn family_of(name: &str) -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stem) = name.strip_suffix(suffix) {
                return stem.to_string();
            }
        }
        name.to_string()
    }

    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    // (histogram family, non-le labels) -> ordered (le, cumulative count)
    let mut buckets: HashMap<(String, String), Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();

    assert!(!body.is_empty(), "empty exposition");
    assert!(body.ends_with('\n'), "exposition must end with a newline");
    for line in body.lines() {
        assert!(!line.trim().is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap();
            assert!(valid_name(name), "bad HELP name `{name}`");
            assert!(helped.insert(name.to_string()), "duplicate HELP for {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let (name, kind) = (it.next().unwrap(), it.next().unwrap());
            assert!(valid_name(name), "bad TYPE name `{name}`");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ),
                "bad TYPE kind `{kind}` for {name}"
            );
            assert!(
                typed.insert(name.to_string(), kind.to_string()).is_none(),
                "duplicate TYPE for {name}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment line `{line}`");

        let (name, labels, value) = parse_sample(line);
        let family = family_of(&name);
        assert!(
            helped.contains(&family) && typed.contains_key(&family),
            "sample `{name}` before its HELP/TYPE"
        );
        assert!(
            seen_series.insert(format!("{name}{{{labels}}}")),
            "duplicate series `{name}{{{labels}}}`"
        );
        if typed.get(&family).map(String::as_str) == Some("histogram") {
            let key_labels: Vec<String> = split_labels(&labels)
                .into_iter()
                .filter(|l| !l.starts_with("le="))
                .collect();
            let key = (family.clone(), key_labels.join(","));
            if name.ends_with("_bucket") {
                let le = split_labels(&labels)
                    .into_iter()
                    .find(|l| l.starts_with("le="))
                    .expect("bucket without le label");
                let le = le.trim_start_matches("le=\"").trim_end_matches('"');
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                };
                buckets.entry(key).or_default().push((le, value));
            } else if name.ends_with("_count") {
                counts.insert(key, value);
            }
        } else if !value.is_finite() {
            panic!("non-finite value on non-histogram `{line}`");
        }
    }
    assert!(!buckets.is_empty(), "no histograms in exposition");
    for ((family, labels), series) in &buckets {
        let mut last_le = f64::NEG_INFINITY;
        let mut last_count = -1.0;
        for (le, count) in series {
            assert!(*le > last_le, "{family}{{{labels}}}: le not increasing");
            assert!(
                *count >= last_count,
                "{family}{{{labels}}}: buckets not cumulative"
            );
            last_le = *le;
            last_count = *count;
        }
        let (inf_le, inf_count) = series.last().unwrap();
        assert!(
            inf_le.is_infinite(),
            "{family}{{{labels}}}: missing +Inf terminal bucket"
        );
        let total = counts
            .get(&(family.clone(), labels.clone()))
            .unwrap_or_else(|| panic!("{family}{{{labels}}}: histogram without _count"));
        assert_eq!(
            inf_count, total,
            "{family}{{{labels}}}: +Inf bucket != _count"
        );
    }
}

/// The same pipelined stream gives the same command counts and timed
/// sample counts on both transports: the protocol session answers
/// adjacent QUERY lines as one batch, yet counts each of them as a
/// `query`, never as an `mquery`.
#[test]
fn scrape_under_pipelined_load_is_valid_and_complete() {
    let series = |transport| -> Vec<String> {
        let body = pipelined_scrape(transport);
        body.lines()
            .filter(|l| {
                l.starts_with("shbf_commands_total{")
                    || l.starts_with("shbf_command_duration_seconds_count{")
            })
            .map(str::to_owned)
            .collect()
    };
    let threaded = series(TransportKind::Threaded);
    let evented = series(TransportKind::Evented);
    assert!(!threaded.is_empty());
    assert_eq!(threaded, evented, "command series differ by transport");
}

/// Drives the pipelined scenario against a fresh server on `transport`,
/// checks the scrape, and returns its body.
fn pipelined_scrape(transport: TransportKind) -> String {
    let (handle, addr, metrics_addr) = start_observable_on(transport, 10_000);

    let mut client = Client::connect(addr).unwrap();
    // One namespace per filter kind; the shbf-x exact table provides
    // ground truth for the observed-FPR series.
    for create in [
        "CREATE flows shbf-m 140000 8",
        "CREATE sizes shbf-x 16384 6",
        "CREATE pairs shbf-a 16384 6",
    ] {
        assert_eq!(client.send_expect_one(create).unwrap(), "+OK");
    }
    let mut batch: Vec<String> = Vec::new();
    for i in 0..500 {
        batch.push(format!("INSERT flows key-{i}"));
    }
    for i in 0..200 {
        batch.push(format!("INSERT sizes item-{i}"));
    }
    for i in 0..500 {
        batch.push(format!("QUERY flows key-{i}"));
    }
    for i in 0..400 {
        // Half of these are absent: exercises the ground-truth negative
        // counter behind shbf_namespace_observed_fpr.
        batch.push(format!("QUERY sizes item-{i}"));
    }
    batch.push("MQUERY flows key-1 key-2 nope-1 nope-2".into());
    let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
    // Scrape concurrently with the pipelined batch: the endpoint must
    // stay consistent while the engine is mutating under it.
    let scraper = std::thread::spawn(move || {
        for _ in 0..5 {
            let (head, body) = scrape(metrics_addr, "GET", "/metrics");
            assert!(head.starts_with("HTTP/1.1 200 OK"));
            validate_exposition(&body);
        }
    });
    let replies = client.send_pipelined(&refs).unwrap();
    assert_eq!(replies.len(), refs.len());
    scraper.join().unwrap();

    let (head, body) = scrape(metrics_addr, "GET", "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4; charset=utf-8"),
        "wrong content type: {head}"
    );
    validate_exposition(&body);

    // The layers all showed up with the expected values.
    for needle in [
        "shbf_commands_total{cmd=\"insert\"} 700",
        "shbf_commands_total{cmd=\"query\"} 900",
        "shbf_commands_total{cmd=\"create\"} 3",
        "shbf_commands_total{cmd=\"mquery\"} 1\n",
        // Batched commands are timed on every dispatch; single-key
        // QUERY timing is clock-sampled (1/64), so only its total is
        // asserted exactly above.
        "shbf_command_duration_seconds_bucket{cmd=\"mquery\",le=\"+Inf\"} 1",
        "shbf_namespace_inserts_total{ns=\"flows\"} 500",
        "shbf_namespace_hits_total{ns=\"flows\"} 502", // 500 QUERY + 2 MQUERY hits
        "shbf_namespace_estimated_fpr{ns=\"flows\"}",
        "shbf_namespace_observed_fpr{ns=\"sizes\"}",
        "shbf_namespace_groundtruth_negatives_total{ns=\"sizes\"} 200",
        "shbf_namespace_occupancy{ns=\"pairs\"}",
        "shbf_replication_is_replica 0",
        "shbf_transport_bytes_in_total",
        "shbf_build_info{version=",
    ] {
        assert!(
            body.contains(needle),
            "{transport:?}: missing `{needle}` in:\n{body}"
        );
    }
    // No WAL configured: WAL families stay absent rather than lying with
    // zeros.
    assert!(!body.contains("shbf_wal_"));

    // Routing.
    let (head404, _) = scrape(metrics_addr, "GET", "/other");
    assert!(head404.starts_with("HTTP/1.1 404"), "{head404}");
    let (head405, _) = scrape(metrics_addr, "POST", "/metrics");
    assert!(head405.starts_with("HTTP/1.1 405"), "{head405}");

    drop(client);
    handle.shutdown().unwrap();
    // The metrics listener is torn down with the server.
    assert!(
        TcpStream::connect(metrics_addr).is_err() || {
            // Accept may still race briefly; a scrape must fail.
            let mut s = TcpStream::connect(metrics_addr).unwrap();
            s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap_or(0);
            out.is_empty()
        }
    );
    body
}

#[test]
fn wal_metrics_families_appear_with_wal_enabled() {
    let dir = std::env::temp_dir().join(format!(
        "shbf-metrics-wal-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let engine = Arc::new(Engine::new());
    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        wal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", engine, config).unwrap();
    let metrics_addr = server.metrics_addr().unwrap();
    let handle = server.spawn().unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(
        client.send_expect_one("CREATE w shbf-m 65536 8").unwrap(),
        "+OK"
    );
    for i in 0..50 {
        client
            .send_expect_one(&format!("INSERT w key-{i}"))
            .unwrap();
    }
    let (head, body) = scrape(metrics_addr, "GET", "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"));
    validate_exposition(&body);
    for needle in [
        "shbf_wal_append_duration_seconds_count 51", // CREATE + 50 INSERTs
        "shbf_wal_fsync_duration_seconds_bucket",
        "shbf_wal_segments 1",
        "shbf_wal_last_seq 51",
        "shbf_snapshots_total 0",
    ] {
        assert!(body.contains(needle), "missing `{needle}` in:\n{body}");
    }
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slowlog_round_trip_over_the_wire() {
    // 1µs threshold: trivial commands may or may not qualify, but a
    // 4000-key MINSERT is reliably over it.
    let (handle, addr, _metrics) = start_observable(1);
    let mut client = Client::connect(addr).unwrap();

    let len = client.send_expect_one("SLOWLOG LEN").unwrap();
    len.trim_start_matches(':')
        .parse::<u64>()
        .expect("LEN is an integer");

    assert_eq!(
        client.send_expect_one("CREATE s shbf-m 262144 8").unwrap(),
        "+OK"
    );
    let minsert = format!(
        "MINSERT s {}",
        (0..4000)
            .map(|i| format!("super-secret-key-{i}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let reply = client.send_expect_one(&minsert).unwrap();
    assert_eq!(reply, ":4000");

    let lines = client.send("SLOWLOG GET 10").unwrap();
    assert!(lines[0].starts_with('*'), "{lines:?}");
    assert!(
        lines.len() >= 2,
        "MINSERT should have been logged: {lines:?}"
    );
    // Entries are `id unix_ts duration_us trace=<hex|-> parse=<µs|->
    // engine=<µs|-> wal=<µs|-> write=<µs|-> summary`, newest first; the
    // MINSERT is the newest (the GET logs itself only after rendering).
    let newest = &lines[1];
    let fields: Vec<&str> = newest.trim_start_matches('+').splitn(9, ' ').collect();
    assert_eq!(fields.len(), 9, "entry shape: {newest}");
    fields[0].parse::<u64>().expect("id");
    fields[1].parse::<u64>().expect("unix ts");
    let took_us: u64 = fields[2].parse().expect("duration µs");
    assert!(took_us >= 1);
    // Tracing is off on this server, so the trace id and every phase
    // column render as `-`.
    assert_eq!(fields[3], "trace=-", "trace column: {newest}");
    for (i, phase) in ["parse=-", "engine=-", "wal=-", "write=-"]
        .iter()
        .enumerate()
    {
        assert_eq!(&fields[4 + i], phase, "phase column: {newest}");
    }
    assert_eq!(fields[8], "MINSERT s (4000 keys)", "summary: {newest}");
    // Summaries carry counts, never key bytes.
    assert!(
        !lines.iter().any(|l| l.contains("super-secret-key")),
        "slowlog leaked key bytes: {lines:?}"
    );

    assert_eq!(client.send_expect_one("SLOWLOG RESET").unwrap(), "+OK");
    let len = client.send_expect_one("SLOWLOG LEN").unwrap();
    let n: u64 = len.trim_start_matches(':').parse().unwrap();
    assert!(n <= 2, "ring should be nearly empty after RESET, got {n}");

    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn stats_server_section_and_reserved_name() {
    let (handle, addr, _metrics) = start_observable(10_000);
    let mut client = Client::connect(addr).unwrap();

    assert_eq!(client.send_expect_one("PING").unwrap(), "+PONG");
    let lines = client.send("STATS server").unwrap();
    assert!(lines[0].starts_with('*'), "{lines:?}");
    let kv: HashMap<String, String> = lines[1..]
        .iter()
        .filter_map(|l| {
            l.trim_start_matches('+')
                .split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect();
    assert_eq!(
        kv.get("version").map(String::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(kv.contains_key("pid"), "{kv:?}");
    assert!(kv.contains_key("uptime_secs"), "{kv:?}");
    let ping_total: u64 = kv["cmd_other"].parse().unwrap();
    assert!(ping_total >= 1, "PING should count under cmd_other: {kv:?}");
    let total: u64 = kv["commands_total"].parse().unwrap();
    assert!(total >= 1, "{kv:?}");

    // `server` is reserved: CREATE must refuse it like the other STATS
    // subjects.
    let err = client
        .send_expect_one("CREATE server shbf-m 65536 8")
        .unwrap();
    assert!(err.starts_with("-ERR"), "{err}");
    assert!(err.contains("reserved"), "{err}");

    drop(client);
    handle.shutdown().unwrap();
}
