//! `shbf-cli` — build, query, and inspect Shifting Bloom Filters from the
//! command line.
//!
//! ```text
//! shbf-cli gen-trace --flows 100000 --packets 500000 --out t.trace
//! shbf-cli build     --trace t.trace --kind shbf-m --out flows.filter
//! shbf-cli build     --trace t.trace --kind shbf-x --out counts.filter
//! shbf-cli query     --filter flows.filter --trace t.trace --sample 1000
//! shbf-cli stats     --filter flows.filter
//! shbf-cli serve     --port 7878 --workers 64
//! shbf-cli client    --port 7878 --send "CREATE flows shbf-m 140000 8"
//! ```

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use shbf::analysis::{bf as bf_theory, shbf as shbf_theory};
use shbf::baselines::Bf;
use shbf::core::{ShbfM, ShbfX};
use shbf::server::{Client, Engine, Server, ServerConfig, TransportKind};
use shbf::workloads::{SyntheticTrace, TraceConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen-trace") => cmd_gen_trace(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `shbf-cli help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "shbf-cli — Shifting Bloom Filters for set queries (VLDB 2016 reproduction)

COMMANDS
  gen-trace --flows N --packets P --out FILE [--seed S] [--theta T]
      Generate a synthetic 5-tuple packet trace (binary, CRC-checked).

  build --trace FILE --out FILE [--kind shbf-m|bf|shbf-x]
        [--bits-per-item B] [--k K] [--max-count C] [--seed S]
      Build a filter from a trace's distinct flows (shbf-m / bf) or from
      its per-flow packet counts (shbf-x).

  query --filter FILE (--key HEX | --trace FILE [--sample N])
      Query a filter: one hex-encoded key, or sampled flows from a trace
      (reports hit rate; for shbf-x, exact-count rate).

  stats --filter FILE
      Print a filter's parameters, fill ratio, and theoretical FPR.

  serve [--port P] [--bind ADDR] [--unix PATH] [--workers N]
        [--load SNAPSHOT] [--evented] [--reactors N]
        [--wal-dir DIR] [--fsync always|everysec|no] [--snapshot-every N]
        [--data-dir DIR] [--replicaof HOST:PORT]
        [--metrics-addr HOST:PORT] [--slowlog-us N]
        [--conn-idle-secs N] [--shed-busy] [--failpoints-admin]
        [--trace-sample off|1inN] [--log-level error|warn|info|debug]
        [--log-format text|json]
      Run the set-query daemon (default 127.0.0.1:7878, 64 workers).
      Speaks the RESP-like line protocol documented in shbf-server;
      --unix listens on a UNIX-domain socket path instead of TCP;
      --load restores namespaces from a snapshot file at startup;
      --evented serves with the edge-triggered epoll reactor transport
      (pipelined parsing + vectored writes; Linux, falls back to
      threaded elsewhere), --reactors caps its event-loop threads.
      --wal-dir enables the durable op-log: mutations are appended
      (flushed per --fsync, default everysec) before the reply, a
      snapshot + log truncation runs every --snapshot-every mutations
      (default 10000), and boot recovers the newest snapshot plus the
      log tail. --data-dir sandboxes SNAPSHOT/LOAD paths to one
      directory. --replicaof starts as a read replica of a primary
      (mutually exclusive with --wal-dir). --metrics-addr also serves
      Prometheus text metrics over HTTP at GET /metrics (port 0 picks
      an ephemeral port, printed at startup); --slowlog-us sets the
      SLOWLOG threshold in microseconds (default 10000, 0 disables).
      --conn-idle-secs reaps connections silent for N seconds (0, the
      default, never reaps); --shed-busy turns connections over the
      --workers cap into an immediate `-ERR busy` instead of queueing
      them; --failpoints-admin enables the FAILPOINT admin verb (fault
      injection for chaos testing — never enable in production). The
      SHBF_FAILPOINTS env var seeds failpoints at startup either way.
      --trace-sample 1inN records a full span tree for one in N
      requests (admin/batch verbs are always traced while sampling is
      on; default off = zero cost): inspect with TRACE GET, or load
      GET /trace on the metrics port into chrome://tracing / Perfetto.
      Requests over --slowlog-us retain their trace, and SLOWLOG GET
      shows the trace id plus per-phase timings. --log-level filters
      the structured stderr log (default info); --log-format json
      emits one JSON object per line instead of text.

  client [--port P] [--host ADDR] [--unix PATH] [--send CMD]
         [--pipeline N] [--timeout-ms N]
      Talk to a running daemon (over TCP, or --unix for a UNIX-socket
      server): --send fires one command and prints the reply; without
      it, a line REPL reads from stdin. --pipeline N writes up to N
      commands before reading their replies (stdin mode; with --send,
      split commands on `;`) — pipelined QUERYs ride the server's
      batched query path on either transport. --timeout-ms bounds both the TCP connect
      and every reply read (0, the default, waits forever)."
    );
}

/// Minimal flag parser: `--name value` pairs plus boolean flags.
struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        Self::parse_with_bools(args, &[])
    }

    /// Like [`Self::parse`], but flags named in `bools` take no value
    /// (they read as `"true"` when present).
    fn parse_with_bools(args: &'a [String], bools: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let name = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{}`", args[i]))?;
            if bools.contains(&name) {
                pairs.push((name, "true"));
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name, value.as_str()));
            i += 2;
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }
}

fn cmd_gen_trace(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let flows: usize = flags
        .require("flows")?
        .parse()
        .map_err(|_| "--flows: not a number")?;
    let packets: usize = flags
        .require("packets")?
        .parse()
        .map_err(|_| "--packets: not a number")?;
    let out = PathBuf::from(flags.require("out")?);
    let seed: u64 = flags.get_parsed("seed", 0x5683_2016)?;
    let theta: f64 = flags.get_parsed("theta", 0.9)?;

    if packets < flows {
        return Err("--packets must be >= --flows".into());
    }
    let trace = SyntheticTrace::generate(&TraceConfig {
        distinct_flows: flows,
        total_packets: packets,
        zipf_theta: theta,
        seed,
    });
    trace
        .write_file(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {}: {} packets, {} distinct flows (zipf θ = {theta}, seed {seed:#x})",
        out.display(),
        trace.len(),
        trace.flows.len()
    );
    Ok(())
}

fn load_trace(path: &str) -> Result<SyntheticTrace, String> {
    SyntheticTrace::read_file(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let trace = load_trace(flags.require("trace")?)?;
    let out = PathBuf::from(flags.require("out")?);
    let kind = flags.get("kind").unwrap_or("shbf-m");
    let bits_per_item: usize = flags.get_parsed("bits-per-item", 14)?;
    let seed: u64 = flags.get_parsed("seed", 0x5683_2016)?;

    let n = trace.flows.len();
    let m = n * bits_per_item;
    let blob = match kind {
        "shbf-m" => {
            let k: usize = flags.get_parsed("k", ShbfM::optimal_even_k(m, n))?;
            let mut f = ShbfM::new(m, k, seed).map_err(|e| e.to_string())?;
            for flow in &trace.flows {
                f.insert(&flow.to_bytes());
            }
            println!(
                "built ShBF_M: m = {m}, k = {k}, {n} flows, fill {:.3}",
                f.fill_ratio()
            );
            f.to_bytes()
        }
        "bf" => {
            let k: usize = flags.get_parsed("k", Bf::optimal_k(m, n))?;
            let mut f = Bf::new(m, k, seed).map_err(|e| e.to_string())?;
            for flow in &trace.flows {
                f.insert(&flow.to_bytes());
            }
            println!(
                "built BF: m = {m}, k = {k}, {n} flows, fill {:.3}",
                f.fill_ratio()
            );
            f.to_bytes()
        }
        "shbf-x" => {
            let c: usize = flags.get_parsed("max-count", 57)?;
            let k: usize = flags.get_parsed("k", 8)?;
            let counts: Vec<([u8; 13], u64)> = trace
                .flow_counts()
                .into_iter()
                .map(|(f, count)| (f.to_bytes(), count.min(c as u64)))
                .collect();
            let f = ShbfX::build(&counts, m, k, c, seed).map_err(|e| e.to_string())?;
            println!("built ShBF_X: m = {m}, k = {k}, c = {c}, {n} flows (counts capped at {c})");
            f.to_bytes()
        }
        other => return Err(format!("unknown --kind `{other}` (shbf-m | bf | shbf-x)")),
    };
    std::fs::write(&out, &blob).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {} ({} bytes)", out.display(), blob.len());
    Ok(())
}

/// Filter files are self-describing through their kind tag; try each type.
enum AnyFilter {
    ShbfM(ShbfM),
    Bf(Bf),
    ShbfX(ShbfX),
}

fn load_filter(path: &str) -> Result<AnyFilter, String> {
    let blob = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if let Ok(f) = ShbfM::from_bytes(&blob) {
        return Ok(AnyFilter::ShbfM(f));
    }
    if let Ok(f) = Bf::from_bytes(&blob) {
        return Ok(AnyFilter::Bf(f));
    }
    if let Ok(f) = ShbfX::from_bytes(&blob) {
        return Ok(AnyFilter::ShbfX(f));
    }
    Err(format!(
        "{path}: not a recognized filter file (or corrupted)"
    ))
}

fn parse_hex(s: &str) -> Result<Vec<u8>, String> {
    // One hex decoder for the whole project: the server protocol's key
    // codec, which expects a `0x` prefix the CLI flag omits.
    shbf::server::protocol::decode_key(&format!("0x{s}")).map_err(|e| format!("--key: {e}"))
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let filter = load_filter(flags.require("filter")?)?;

    if let Some(hex) = flags.get("key") {
        let key = parse_hex(hex)?;
        match &filter {
            AnyFilter::ShbfM(f) => println!("ShBF_M contains: {}", f.contains(&key)),
            AnyFilter::Bf(f) => println!("BF contains: {}", f.contains(&key)),
            AnyFilter::ShbfX(f) => {
                let a = f.query(&key);
                println!(
                    "ShBF_X multiplicity: {} (candidates {:?})",
                    a.reported, a.candidates
                );
            }
        }
        return Ok(());
    }

    let trace = load_trace(flags.require("trace")?)?;
    let sample: usize = flags.get_parsed("sample", 10_000)?;
    let flows: Vec<_> = trace.flows.iter().take(sample).collect();
    if flows.is_empty() {
        return Err("trace has no flows".into());
    }
    match &filter {
        AnyFilter::ShbfM(f) => {
            let hits = flows.iter().filter(|x| f.contains(&x.to_bytes())).count();
            println!("ShBF_M: {hits}/{} trace flows present", flows.len());
        }
        AnyFilter::Bf(f) => {
            let hits = flows.iter().filter(|x| f.contains(&x.to_bytes())).count();
            println!("BF: {hits}/{} trace flows present", flows.len());
        }
        AnyFilter::ShbfX(f) => {
            let counts = trace.flow_counts();
            let checked = counts.iter().take(sample);
            let mut exact = 0usize;
            let mut under = 0usize;
            let mut total = 0usize;
            for (flow, count) in checked {
                let reported = f.query(&flow.to_bytes()).reported;
                let capped = (*count).min(f.c() as u64);
                if reported == capped {
                    exact += 1;
                }
                if reported < capped {
                    under += 1;
                }
                total += 1;
            }
            println!(
                "ShBF_X over {total} flows: {exact} exact ({:.2}%), {under} under-reports",
                100.0 * exact as f64 / total as f64
            );
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse_with_bools(args, &["evented", "shed-busy", "failpoints-admin"])?;
    let bind = flags.get("bind").unwrap_or("127.0.0.1");
    let port: u16 = flags.get_parsed("port", 7878)?;
    let workers: usize = flags.get_parsed("workers", 64)?;
    let evented = flags.get("evented").is_some();
    let reactors: usize = flags.get_parsed("reactors", 0)?;
    let wal_dir = flags.get("wal-dir").map(PathBuf::from);
    let fsync: shbf::server::FsyncPolicy = flags
        .get("fsync")
        .map(str::parse)
        .transpose()?
        .unwrap_or_default();
    let snapshot_every_ops: u64 = flags.get_parsed("snapshot-every", 10_000)?;
    let data_dir = flags.get("data-dir").map(PathBuf::from);
    let replica_of = flags.get("replicaof").map(str::to_string);
    let metrics_addr = flags.get("metrics-addr").map(str::to_string);
    let slowlog_us: u64 = flags.get_parsed("slowlog-us", 10_000)?;
    let conn_idle_secs: u64 = flags.get_parsed("conn-idle-secs", 0)?;
    let shed_busy = flags.get("shed-busy").is_some();
    let failpoints_admin = flags.get("failpoints-admin").is_some();
    let trace_sample =
        shbf::server::trace::parse_sample(flags.get("trace-sample").unwrap_or("off"))
            .map_err(|e| format!("--trace-sample: {e}"))?;
    let log_level =
        shbf::server::trace::log::Level::parse(flags.get("log-level").unwrap_or("info"))
            .map_err(|e| format!("--log-level: {e}"))?;
    let log_format =
        shbf::server::trace::log::Format::parse(flags.get("log-format").unwrap_or("text"))
            .map_err(|e| format!("--log-format: {e}"))?;

    let engine = Arc::new(Engine::new());
    if let Some(snapshot) = flags.get("load") {
        let n = engine
            .restore_from_snapshot(Path::new(snapshot))
            .map_err(|e| format!("loading {snapshot}: {e}"))?;
        println!("restored {n} namespaces from {snapshot}");
    }
    let transport = if evented {
        TransportKind::Evented
    } else {
        TransportKind::Threaded
    };
    let config = ServerConfig {
        max_connections: workers,
        transport,
        evented_workers: reactors,
        wal_dir,
        fsync,
        snapshot_every_ops,
        data_dir,
        replica_of,
        metrics_addr,
        slowlog_us,
        conn_idle_secs,
        shed_busy,
        failpoints_admin,
        trace_sample,
        log_level,
        log_format,
        ..ServerConfig::default()
    };
    let server = match flags.get("unix") {
        #[cfg(unix)]
        Some(path) => Server::bind_unix(path, engine, config)
            .map_err(|e| format!("binding unix:{path}: {e}"))?,
        #[cfg(not(unix))]
        Some(_) => return Err("--unix needs a UNIX platform".into()),
        None => Server::bind((bind, port), engine, config)
            .map_err(|e| format!("binding {bind}:{port}: {e}"))?,
    };
    let endpoint = server.endpoint().clone();
    let mode = match transport {
        TransportKind::Evented => "evented epoll transport",
        TransportKind::Threaded => "threaded transport",
    };
    println!("shbf-server listening on {endpoint} ({mode}, {workers} max connections); send SHUTDOWN to stop");
    if let Some(addr) = server.metrics_addr() {
        println!(
            "prometheus metrics at http://{addr}/metrics (traces at /trace, readiness at /healthz)"
        );
    }
    server.run().map_err(|e| format!("serving: {e}"))
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let host = flags.get("host").unwrap_or("127.0.0.1");
    let port: u16 = flags.get_parsed("port", 7878)?;
    let pipeline: usize = flags.get_parsed("pipeline", 1)?;
    if pipeline == 0 {
        return Err("--pipeline must be >= 1".into());
    }
    let timeout_ms: u64 = flags.get_parsed("timeout-ms", 0)?;
    let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    let mut client = match flags.get("unix") {
        #[cfg(unix)]
        Some(path) => {
            Client::connect_unix(path).map_err(|e| format!("connecting unix:{path}: {e}"))?
        }
        #[cfg(not(unix))]
        Some(_) => return Err("--unix needs a UNIX platform".into()),
        None => match timeout {
            Some(t) => Client::connect_timeout((host, port), t)
                .map_err(|e| format!("connecting {host}:{port}: {e}"))?,
            None => Client::connect((host, port))
                .map_err(|e| format!("connecting {host}:{port}: {e}"))?,
        },
    };
    if timeout.is_some() {
        client
            .set_read_timeout(timeout)
            .map_err(|e| format!("setting read timeout: {e}"))?;
    }

    let print_reply = |lines: Vec<String>| {
        for line in lines {
            println!("{line}");
        }
    };

    if let Some(command) = flags.get("send") {
        // With a pipeline depth, `;` splits --send into a batch that goes
        // out in one write before any reply is read.
        let commands: Vec<&str> = if pipeline > 1 {
            command
                .split(';')
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .collect()
        } else {
            vec![command]
        };
        let replies = client
            .send_pipelined(&commands)
            .map_err(|e| e.to_string())?;
        let failed = replies
            .iter()
            .any(|lines| lines.first().is_some_and(|l| l.starts_with('-')));
        for lines in replies {
            print_reply(lines);
        }
        return if failed {
            Err("server returned an error".into())
        } else {
            Ok(())
        };
    }

    // Line REPL: with --pipeline N, up to N request lines are written
    // before their replies are read (batches flush early on QUIT/SHUTDOWN
    // and at EOF), demonstrating the server's pipelined path from stdin.
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let mut batch: Vec<String> = Vec::new();
    let mut closing = false;
    loop {
        let mut flush_now = false;
        let mut eof = false;
        if !closing {
            if pipeline == 1 {
                print!("shbf> ");
                stdout.flush().ok();
            }
            let mut line = String::new();
            if stdin
                .lock()
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                eof = true;
            } else {
                let line = line.trim();
                if !line.is_empty() {
                    closing =
                        line.eq_ignore_ascii_case("quit") || line.eq_ignore_ascii_case("shutdown");
                    batch.push(line.to_string());
                }
            }
            flush_now = closing || eof || batch.len() >= pipeline;
        }
        if flush_now && !batch.is_empty() {
            match client.send_pipelined(&batch) {
                Ok(replies) => {
                    for lines in replies {
                        print_reply(lines);
                    }
                }
                Err(e) => return Err(format!("connection lost: {e}")),
            }
            batch.clear();
        }
        if closing || eof {
            return Ok(());
        }
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let path = flags.require("filter")?;
    match load_filter(path)? {
        AnyFilter::ShbfM(f) => {
            let (m, k, n) = (f.m() as f64, f.k() as f64, f.items() as f64);
            println!("kind:            ShBF_M");
            println!("m (logical):     {}", f.m());
            println!(
                "k:               {} ({} pairs + 1 offset hash)",
                f.k(),
                f.pairs()
            );
            println!("w-bar:           {}", f.w_bar());
            println!("items:           {}", f.items());
            println!("fill ratio:      {:.4}", f.fill_ratio());
            if f.items() > 0 {
                println!(
                    "theoretical FPR: {:.3e} (BF at same params: {:.3e})",
                    shbf_theory::fpr(m, n, k, f.w_bar() as f64),
                    bf_theory::fpr(m, n, k)
                );
            }
        }
        AnyFilter::Bf(f) => {
            println!("kind:            BF");
            println!("m:               {}", f.m());
            println!("k:               {}", f.k());
            println!("items:           {}", f.items());
            println!("fill ratio:      {:.4}", f.fill_ratio());
            if f.items() > 0 {
                println!(
                    "theoretical FPR: {:.3e}",
                    bf_theory::fpr(f.m() as f64, f.items() as f64, f.k() as f64)
                );
            }
        }
        AnyFilter::ShbfX(f) => {
            println!("kind:            ShBF_X");
            println!("m (logical):     {}", f.m());
            println!("k:               {}", f.k());
            println!("c (max count):   {}", f.c());
            println!("distinct items:  {}", f.n_distinct());
        }
    }
    Ok(())
}
