//! End-to-end run: spawns the release `shbf-cli serve` on loopback TCP
//! (evented transport, every flag pinned), sets it up several times, then
//! drives one closed-loop client connection for the window and checks
//! every reply. A second, admin connection does set-up and reads the
//! server's counters outside the window. Prints one JSON object.
//!
//! ```text
//! perfbench-load --workload NAME --seed N --seconds S --server PATH --work-dir DIR
//!                [--cpu CPU] [--setups MAX] [--durable 0|1]
//! ```
//!
//! `--cpu` pins the server to that CPU with `taskset`; the caller pins this
//! process there too, and CPU steal is counted on it.
//!
//! Every `ECHO_EVERY` rounds the window also times one bare echo of a
//! round's request bytes through a loopback echo thread on the same CPU;
//! no code of the repository runs in it. The host's speed switches between
//! levels as far as 2× apart, over tenths of seconds to minutes, and the
//! server's round time follows the echo's. The `_norm` figures scale each
//! sub-window by its own echoes, so they compare runs made in different
//! host phases (see `sub_windows`). Each set-up is scaled by bursts of
//! echoes timed just before and after it. Work the server did in the
//! background would slow the echo as well as the rounds, and so cancel out
//! of the round figures; it shows in the server's CPU time per operation.
//!
//! `--durable 1` (on `mixed`, the workload with writes) runs the server
//! with a WAL under `--fsync always` and the default snapshot cadence,
//! then after the window SIGKILLs and restarts it on the same WAL
//! directory, times the recovery and checks that every acknowledged INSERT
//! is still there.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use shbf_perfbench::{
    flag, interquartile_mean, key, load_lines, median, parse_flags, percentile, rounds, Checker,
    Expect, Json, Pool, Round, Shape, Workload, ECHO_EVERY, INSERT_POOL, NONMEMBER_POOL, NS,
    SNAPSHOT_EVERY,
};

/// Set-ups per run: at least `MIN_SETUPS`, more while they take under
/// `SETUP_BUDGET` in total, at most `MAX_SETUPS`; `setup_s` is their
/// median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Kill-and-restart cycles of the `--durable 1` phase; `recovery_s` is
/// their median.
const RESTARTS: usize = 3;
/// Warm-up before the window: caches fill and, on `mixed`, the whole
/// insert pool is written once.
const WARMUP: Duration = Duration::from_millis(1000);
/// Keys per verification `MQUERY` after the window.
const CHECK_CHUNK: usize = 4096;
/// A reply slower than this aborts the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Echoes per burst around a set-up; the burst's figure is their median.
const ECHO_BURST: usize = 64;

type Result<T> = std::result::Result<T, String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => println!("{}", report.render()),
        Err(e) => {
            eprintln!("perfbench-load: {e}");
            std::process::exit(1);
        }
    }
}

/// A running server child. Dropping it kills and reaps the process.
struct Server {
    child: Child,
    addr: String,
    metrics_addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts `bin flags`, pinned with `taskset` to `cpu` when given.
    fn spawn(bin: &Path, flags: &[String], cpu: Option<usize>, log: &Path) -> Result<Server> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("server log {}: {e}", log.display()))?;
        let mut command = match cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(cpu.to_string()).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        let mut child = command
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut metrics_addr = None;
        while addr.is_none() || metrics_addr.is_none() {
            let mut line = String::new();
            if out.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before listening (see its log)".into());
            }
            if let Some(rest) = line.strip_prefix("shbf-server listening on ") {
                addr = rest.split_whitespace().next().map(str::to_string);
            } else if let Some(rest) = line.strip_prefix("prometheus metrics at http://") {
                metrics_addr = rest.split('/').next().map(str::to_string);
            }
        }
        // Keep the pipe drained so the server never blocks on stdout.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        Ok(Server {
            child,
            addr: addr.expect("loop ends when set"),
            metrics_addr: metrics_addr.expect("loop ends when set"),
            drain: Some(drain),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL and reap.
    fn kill(mut self) {
        self.reap(true);
    }

    /// `SHUTDOWN` over `conn`, then wait for the process to exit.
    fn shutdown(mut self, conn: &mut Conn) -> Result<()> {
        conn.send(b"SHUTDOWN\n")?;
        let reply = conn.reply()?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        self.reap(false);
        if reply != ["+BYE"] || !status.success() {
            return Err(format!("server shutdown: reply {reply:?}, status {status}"));
        }
        Ok(())
    }

    fn reap(&mut self, kill: bool) {
        if kill {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap(true);
    }
}

/// A client connection with a read buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Box<[u8]>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            chunk: vec![0u8; 1 << 16].into_boxed_slice(),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads more bytes into the buffer.
    fn fill(&mut self) -> Result<()> {
        let n = self
            .stream
            .read(&mut self.chunk)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(())
    }

    /// One reply line (without `\r\n`).
    fn line(&mut self) -> Result<String> {
        loop {
            if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=i).collect();
                let line = String::from_utf8_lossy(&line);
                return Ok(line.trim_end_matches(['\r', '\n']).to_string());
            }
            self.fill()?;
        }
    }

    /// One whole reply: a single line, or for `*n` the header's items
    /// flattened (one level, which covers every reply used here).
    fn reply(&mut self) -> Result<Vec<String>> {
        let head = self.line()?;
        match head.strip_prefix('*').and_then(|n| n.parse::<usize>().ok()) {
            Some(n) => (0..n).map(|_| self.line()).collect(),
            None => Ok(vec![head]),
        }
    }

    fn call(&mut self, line: &str) -> Result<Vec<String>> {
        self.send(format!("{line}\n").as_bytes())?;
        self.reply()
    }

    /// `STATS subject` as `k=v` pairs.
    fn stats(&mut self, subject: &str) -> Result<Vec<(String, String)>> {
        Ok(self
            .call(&format!("STATS {subject}"))?
            .iter()
            .filter_map(|f| {
                let (k, v) = f.strip_prefix('+')?.split_once('=')?;
                Some((k.to_string(), v.to_string()))
            })
            .collect())
    }
}

/// A loopback TCP echo served by a thread of this process, so it runs on
/// the benchmark's CPU. Its round trip is the host's bare cost of moving a
/// round's bytes; no code of the repository runs in it.
struct Echo {
    stream: TcpStream,
    buf: Box<[u8]>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Echo {
    fn start() -> Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let _ = s.set_nodelay(true);
            let mut buf = vec![0u8; 1 << 16];
            while let Ok(n @ 1..) = s.read(&mut buf) {
                if s.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
        });
        let stream = TcpStream::connect(addr).map_err(|e| format!("echo connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Echo {
            stream,
            buf: vec![0u8; 1 << 16].into_boxed_slice(),
            thread: Some(thread),
        })
    }

    /// Writes `bytes` and reads them back. Returns the round time in ns.
    fn round(&mut self, bytes: &[u8]) -> Result<u64> {
        let started = Instant::now();
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("echo write: {e}"))?;
        let mut got = 0;
        while got < bytes.len() {
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("echo closed".into()),
                Ok(n) => got += n,
                Err(e) => return Err(format!("echo read: {e}")),
            }
        }
        Ok(started.elapsed().as_nanos() as u64)
    }

    /// The median time in µs of `ECHO_BURST` echoes cycling through
    /// `stream`'s request bytes.
    fn burst(&mut self, stream: &[Round]) -> Result<f64> {
        let mut times = (0..ECHO_BURST)
            .map(|i| self.round(&stream[i % stream.len()].bytes))
            .collect::<Result<Vec<u64>>>()?;
        times.sort_unstable();
        Ok(percentile(&times, 0.5) as f64 / 1e3)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // The thread's read sees end of file and it returns.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn stat_u64(fields: &[(String, String)], name: &str) -> Result<u64> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| format!("STATS has no numeric `{name}`"))
}

/// Sum and count of the server's WAL fsync histogram, from `/metrics`.
fn fsync_histogram(metrics_addr: &str) -> Result<(f64, f64)> {
    let mut s =
        TcpStream::connect(metrics_addr).map_err(|e| format!("metrics {metrics_addr}: {e}"))?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut body = String::new();
    s.read_to_string(&mut body).map_err(|e| e.to_string())?;
    let series = |name: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Ok((
        series("shbf_wal_fsync_duration_seconds_sum"),
        series("shbf_wal_fsync_duration_seconds_count"),
    ))
}

/// Peak resident set of `pid` in MiB (`VmHWM`).
fn peak_rss_mib(pid: u32) -> Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM".into())
}

/// The server's command line: every flag pinned; with `durable`, a WAL
/// under `--fsync always` and the default snapshot cadence.
fn server_flags(durable: bool, wal_dir: &Path) -> Vec<String> {
    let mut flags: Vec<String> = [
        "serve",
        "--bind",
        "127.0.0.1",
        "--port",
        "0",
        "--evented",
        "--reactors",
        "1",
        "--workers",
        "64",
        "--trace-sample",
        "off",
        "--slowlog-us",
        "10000",
        "--conn-idle-secs",
        "0",
        "--log-level",
        "warn",
        "--log-format",
        "text",
        "--metrics-addr",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if durable {
        flags.extend([
            "--wal-dir".to_string(),
            wal_dir.display().to_string(),
            "--fsync".to_string(),
            "always".to_string(),
            "--snapshot-every".to_string(),
            SNAPSHOT_EVERY.to_string(),
        ]);
    }
    flags
}

/// Waits until `server` answers `PING`; returns the admin connection.
fn ready(server: &Server) -> Result<Conn> {
    let mut conn = Conn::connect(&server.addr)?;
    let pong = conn.call("PING")?;
    if pong != ["+PONG"] {
        return Err(format!("PING answered {pong:?}"));
    }
    Ok(conn)
}

/// Creates the namespace and bulk-loads it. Returns the load time.
fn load(conn: &mut Conn, w: &Workload, lines: &[Vec<u8>]) -> Result<f64> {
    let created = conn.call(&w.create_line())?;
    if created != ["+OK"] {
        return Err(format!("CREATE answered {created:?}"));
    }
    let started = Instant::now();
    for line in lines {
        conn.send(line)?;
    }
    let mut loaded = 0usize;
    for _ in lines {
        let reply = conn.reply()?;
        loaded += reply[0]
            .strip_prefix(':')
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| format!("MINSERT answered {reply:?}"))?;
    }
    if loaded != w.preload {
        return Err(format!("MINSERT loaded {loaded} of {} keys", w.preload));
    }
    Ok(started.elapsed().as_secs_f64())
}

/// One closed-loop round on `conn`: write, then read until the whole
/// reply has been checked. Returns the round time in ns.
fn round_trip(
    conn: &mut Conn,
    shape: Shape,
    bytes: &[u8],
    expect: &[Expect],
    checker: &mut Checker,
) -> Result<u64> {
    let started = Instant::now();
    conn.send(bytes)?;
    loop {
        conn.fill()?;
        if let Some(used) = checker.check_round(shape, expect, &conn.buf) {
            let took = started.elapsed().as_nanos() as u64;
            if used != conn.buf.len() {
                return Err("server sent more replies than requested".into());
            }
            conn.buf.clear();
            return Ok(took);
        }
    }
}

/// `MQUERY`s `keys` in chunks, checking each answer against `expect`.
fn probe_all(
    conn: &mut Conn,
    keys: &[String],
    expect: Expect,
    checker: &mut Checker,
) -> Result<()> {
    for chunk in keys.chunks(CHECK_CHUNK) {
        let mut line = format!("MQUERY {NS}").into_bytes();
        for k in chunk {
            line.push(b' ');
            line.extend_from_slice(k.as_bytes());
        }
        line.push(b'\n');
        let expects = vec![expect; chunk.len()];
        round_trip(conn, Shape::MQuery, &line, &expects, checker)?;
    }
    Ok(())
}

/// CPU steal ticks so far (time the hypervisor ran something else): of
/// `cpu` when given, else of the whole machine. `None` where `/proc/stat`
/// cannot be read.
fn steal_ticks(cpu: Option<usize>) -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let name = cpu.map_or_else(|| "cpu".to_string(), |c| format!("cpu{c}"));
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name.as_str()))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// CPU time all threads of `pid` have run so far, in ns
/// (`/proc/PID/task/*/schedstat`).
fn cpu_ns(pid: u32) -> Result<u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| e.to_string())?;
    let mut total = 0;
    for task in tasks {
        let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread that exited since the listing has nothing to add.
        let Ok(stat) = std::fs::read_to_string(&path) else {
            continue;
        };
        total += stat
            .split_whitespace()
            .next()
            .and_then(|t| t.parse::<u64>().ok())
            .ok_or_else(|| format!("{}: {stat:?}", path.display()))?;
    }
    Ok(total)
}

/// Counters read at the edges of the sub-windows.
#[derive(Clone, Copy)]
struct Mark {
    /// CPU steal ticks of the benchmark's CPU (see `steal_ticks`).
    steal: Option<u64>,
    /// The server's CPU time so far, ns.
    server_cpu_ns: u64,
}

impl Mark {
    fn read(cpu: Option<usize>, server: &Server) -> Result<Mark> {
        Ok(Mark {
            steal: steal_ticks(cpu),
            server_cpu_ns: cpu_ns(server.pid())?,
        })
    }
}

/// The window's figures: interquartile means over its sub-windows.
struct SubWindows {
    /// Complete sub-windows in the window.
    count: usize,
    /// Sub-windows the means are over.
    used: usize,
    /// Rounds in each.
    rounds: usize,
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    server_cpu_us_per_op: f64,
    /// Median bare echo of a round.
    echo_us: f64,
    /// The same figures scaled to a host on which that echo takes the
    /// workload's `echo_ref_us`.
    ops_per_s_norm: f64,
    p50_us_norm: f64,
    p99_us_norm: f64,
    server_cpu_us_per_op_norm: f64,
}

/// `start`, `marks` and `end` are read at the start, at the end of each
/// complete sub-window, and at the end of the window.
///
/// Throughput (operations over the summed round times), p50, p99 and the
/// server's CPU time per operation of each complete sub-window, and their
/// interquartile means over the sub-windows in which the hypervisor stole
/// no CPU time from us. When fewer than a quarter are clean, the half with
/// the least steal is used instead. A window too short for one sub-window
/// counts as one.
///
/// Each sub-window is also scaled by `echo_ref_us` over the median of its
/// own echo rounds, which were interleaved with its rounds: a host phase
/// that slows both cancels out. The p99 is scaled by the geometric mean of
/// the echoes' median and p99 instead: the host also has phases of more
/// frequent stalls, which lengthen the tails of both and leave the medians
/// alone. Over twenty runs per workload this kept the p99's spread within
/// 7%; scaled by the echo median alone it reached 11%.
fn sub_windows(
    samples: &[u64],
    echoes: &[u64],
    start: Mark,
    marks: &[Mark],
    end: Mark,
    w: &Workload,
) -> SubWindows {
    let (rounds, ends): (usize, &[Mark]) = if marks.is_empty() {
        (samples.len(), &[end])
    } else {
        (w.sub_rounds, marks)
    };
    struct Sub {
        steal: u64,
        ops_per_s: f64,
        p50_us: f64,
        p99_us: f64,
        cpu_us_per_op: f64,
        echo_us: f64,
        echo_p99_us: f64,
    }
    let mut subs: Vec<Sub> = Vec::with_capacity(ends.len());
    let mut begin = start;
    for (i, end) in ends.iter().enumerate() {
        let mut v = samples[i * rounds..(i + 1) * rounds].to_vec();
        v.sort_unstable();
        // Echo `j` ran after round `(j + 1) * ECHO_EVERY`, which divides
        // `sub_rounds`.
        let mut e = if marks.is_empty() {
            echoes.to_vec()
        } else {
            echoes[i * rounds / ECHO_EVERY..(i + 1) * rounds / ECHO_EVERY].to_vec()
        };
        e.sort_unstable();
        let ops = (rounds * w.round_ops) as f64;
        let steal = match (begin.steal, end.steal) {
            (Some(a), Some(b)) => b - a,
            _ => 0,
        };
        subs.push(Sub {
            steal,
            ops_per_s: ops / (v.iter().sum::<u64>() as f64 / 1e9),
            p50_us: percentile(&v, 0.5) as f64 / 1e3,
            p99_us: percentile(&v, 0.99) as f64 / 1e3,
            cpu_us_per_op: end.server_cpu_ns.saturating_sub(begin.server_cpu_ns) as f64 / 1e3 / ops,
            echo_us: percentile(&e, 0.5) as f64 / 1e3,
            echo_p99_us: percentile(&e, 0.99) as f64 / 1e3,
        });
        begin = *end;
    }
    let count = subs.len();
    subs.sort_by_key(|s| s.steal);
    let clean = subs.iter().take_while(|s| s.steal == 0).count();
    let used = if clean * 4 >= count && clean > 0 {
        clean
    } else {
        count.div_ceil(2)
    };
    let kept = &subs[..used];
    let mean_of =
        |f: &dyn Fn(&Sub) -> f64| interquartile_mean(&kept.iter().map(f).collect::<Vec<_>>());
    let scale = |s: &Sub| w.echo_ref_us / s.echo_us;
    SubWindows {
        count,
        used,
        rounds,
        ops_per_s: mean_of(&|s| s.ops_per_s),
        p50_us: mean_of(&|s| s.p50_us),
        p99_us: mean_of(&|s| s.p99_us),
        server_cpu_us_per_op: mean_of(&|s| s.cpu_us_per_op),
        echo_us: mean_of(&|s| s.echo_us),
        ops_per_s_norm: mean_of(&|s| s.ops_per_s / scale(s)),
        p50_us_norm: mean_of(&|s| s.p50_us * scale(s)),
        p99_us_norm: mean_of(&|s| s.p99_us * w.echo_ref_us / (s.echo_us * s.echo_p99_us).sqrt()),
        server_cpu_us_per_op_norm: mean_of(&|s| s.cpu_us_per_op * scale(s)),
    }
}

fn run(args: &[String]) -> Result<Json> {
    let flags = parse_flags(args)?;
    let need = |name: &str| flag(&flags, name).ok_or_else(|| format!("--{name} is required"));
    let w = shbf_perfbench::workload(need("workload")?)
        .ok_or_else(|| format!("unknown workload `{}`", need("workload").unwrap_or("")))?;
    let seed: u64 = need("seed")?.parse().map_err(|_| "--seed: not a number")?;
    let seconds: f64 = need("seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number")?;
    let bin = PathBuf::from(need("server")?);
    let work = PathBuf::from(need("work-dir")?);
    // The CPU the server is pinned to; the caller runs this process there
    // too, and steal is counted on it.
    let cpu: Option<usize> = flag(&flags, "cpu")
        .map(|c| c.parse().map_err(|_| "--cpu: not a number"))
        .transpose()?;
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let log = work.join("server.log");
    let wal_dir = work.join("wal");

    let lines = load_lines(w, seed);
    let stream = rounds(w, seed);
    let durable = match flag(&flags, "durable") {
        None | Some("0") => false,
        Some("1") if w.shape == Shape::Mixed => true,
        _ => return Err("--durable: 0, or 1 on a workload with writes".into()),
    };
    let sflags = server_flags(durable, &wal_dir);

    // Set-up, several times; the last server stays up for the window.
    let max_setups: usize = match flag(&flags, "setups") {
        Some(n) => n.parse().map_err(|_| "--setups: not a number")?,
        None => MAX_SETUPS,
    };
    let min_setups = MIN_SETUPS.min(max_setups);
    let mut echo = Echo::start()?;
    let mut setup_s = Vec::new();
    let mut setup_echo_us = Vec::new();
    let mut load_s = Vec::new();
    let setups_start = Instant::now();
    let (mut server, mut admin) = loop {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let before = echo.burst(&stream)?;
        let started = Instant::now();
        let server = Server::spawn(&bin, &sflags, cpu, &log)?;
        let mut admin = ready(&server)?;
        load_s.push(load(&mut admin, w, &lines)?);
        admin.call("PING")?;
        setup_s.push(started.elapsed().as_secs_f64());
        setup_echo_us.push((before + echo.burst(&stream)?) / 2.0);
        let n = setup_s.len();
        if n >= max_setups || (n >= min_setups && setups_start.elapsed() >= SETUP_BUDGET) {
            break (server, admin);
        }
        server.kill();
    };

    let mut client = Conn::connect(&server.addr)?;
    let mut checker = Checker::default();
    let mut attempted = 0u64;
    let mut next = 0usize;
    let mut send = |client: &mut Conn, checker: &mut Checker, attempted: &mut u64| {
        let r = &stream[next % stream.len()];
        next += 1;
        *attempted += r.expect.len() as u64;
        round_trip(client, w.shape, &r.bytes, &r.expect, checker)
    };

    // Warm-up: at least WARMUP, and on `mixed` enough rounds to insert
    // the whole pool once.
    let warm_rounds = match w.shape {
        Shape::Mixed => INSERT_POOL.div_ceil(w.round_ops / 4),
        _ => 0,
    };
    let warm_start = Instant::now();
    let mut warmed = 0usize;
    while warm_start.elapsed() < WARMUP || warmed < warm_rounds {
        send(&mut client, &mut checker, &mut attempted)?;
        warmed += 1;
        if warmed.is_multiple_of(ECHO_EVERY) {
            echo.round(&stream[warmed % stream.len()].bytes)?;
        }
    }

    let transport_before = admin.stats("transport")?;
    let server_before = admin.stats("server")?;
    let fsync_before = fsync_histogram(&server.metrics_addr)?;
    let acked_before = checker.inserts_acked;

    let mut samples: Vec<u64> = Vec::with_capacity(1 << 20);
    let mut echoes: Vec<u64> = Vec::with_capacity(1 << 18);
    // Read at the end of each complete sub-window.
    let mut marks: Vec<Mark> = Vec::new();
    let window = Duration::from_secs_f64(seconds);
    let first = Mark::read(cpu, &server)?;
    let started = Instant::now();
    while started.elapsed() < window {
        samples.push(send(&mut client, &mut checker, &mut attempted)?);
        if samples.len().is_multiple_of(ECHO_EVERY) {
            echoes.push(echo.round(&stream[samples.len() % stream.len()].bytes)?);
        }
        if samples.len().is_multiple_of(w.sub_rounds) {
            marks.push(Mark::read(cpu, &server)?);
        }
    }
    if echoes.is_empty() {
        echoes.push(echo.round(&stream[0].bytes)?);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let last = Mark::read(cpu, &server)?;
    let window_rounds = samples.len() as u64;
    let busy_s = samples.iter().sum::<u64>() as f64 / 1e9;

    let transport_after = admin.stats("transport")?;
    let server_after = admin.stats("server")?;
    let fsync_after = fsync_histogram(&server.metrics_addr)?;
    let acked_window = checker.inserts_acked - acked_before;
    let window_ops = window_rounds * w.round_ops as u64;
    let rss = peak_rss_mib(server.pid())?;

    // FPR over the whole non-member pool: fixed for a given seed.
    let nonmembers: Vec<String> = (0..NONMEMBER_POOL)
        .map(|i| key(seed, Pool::NonMember, i))
        .collect();
    let mut fpr_check = Checker::default();
    probe_all(&mut admin, &nonmembers, Expect::NonMember, &mut fpr_check)?;
    attempted += NONMEMBER_POOL as u64;
    let fpr = fpr_check.false_positives as f64 / fpr_check.nonmember_probes.max(1) as f64;

    // Durability: SIGKILL, restart on the same WAL directory, time the
    // recovery, then every acknowledged INSERT key must be present.
    let mut recovery_s = Vec::new();
    let mut durability_failed = 0u64;
    if durable {
        drop(client);
        drop(admin);
        let acked = (checker.inserts_acked as usize).min(INSERT_POOL);
        for _ in 0..RESTARTS {
            let killed = Instant::now();
            server.kill();
            server = Server::spawn(&bin, &sflags, cpu, &log)?;
            ready(&server)?;
            recovery_s.push(killed.elapsed().as_secs_f64());
        }
        admin = ready(&server)?;
        let keys: Vec<String> = (0..acked).map(|i| key(seed, Pool::Insert, i)).collect();
        let mut durable_check = Checker::default();
        probe_all(&mut admin, &keys, Expect::Member, &mut durable_check)?;
        attempted += keys.len() as u64;
        durability_failed = durable_check.failures.total();
    }
    server.shutdown(&mut admin)?;

    let failed = checker.failures.total() + fpr_check.failures.total() + durability_failed;
    drop(echo);
    let sub = sub_windows(&samples, &echoes, first, &marks, last, w);
    samples.sort_unstable();
    let us = |q: f64| percentile(&samples, q) as f64 / 1e3;
    let delta = |a: &[(String, String)], b: &[(String, String)], k: &str| -> Result<f64> {
        Ok(stat_u64(b, k)?.saturating_sub(stat_u64(a, k)?) as f64)
    };
    let fsyncs = fsync_after.1 - fsync_before.1;
    let fsync_secs = fsync_after.0 - fsync_before.0;
    let f = checker.failures;
    // The snapshot stall: mean of the `snapshots` slowest rounds, one per
    // snapshot taken in the window.
    let snapshots = delta(&server_before, &server_after, "snapshots")?;
    let slowest = &samples[samples.len().saturating_sub(snapshots as usize)..];
    let stall_ms = if slowest.is_empty() {
        0.0
    } else {
        slowest.iter().sum::<u64>() as f64 / slowest.len() as f64 / 1e6
    };
    Ok(Json::obj([
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Int(seed)),
        ("durable", Json::Bool(durable)),
        ("window_s", Json::Num(elapsed)),
        (
            "server_flags",
            Json::Arr(sflags.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        ("create", Json::Str(w.create_line())),
        (
            "setup_s_norm",
            Json::Num(median(
                &setup_s
                    .iter()
                    .zip(&setup_echo_us)
                    .map(|(s, e)| s * w.echo_ref_us / e)
                    .collect::<Vec<_>>(),
            )),
        ),
        ("setup_s", Json::Num(median(&setup_s))),
        ("setup_echo_us", Json::Num(median(&setup_echo_us))),
        (
            "setup_s_each",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "load_keys_per_s",
            Json::Num(w.preload as f64 / median(&load_s)),
        ),
        ("warmup_rounds", Json::Int(warmed as u64)),
        ("rounds", Json::Int(window_rounds)),
        ("ops", Json::Int(window_ops)),
        ("sub_windows", Json::Int(sub.count as u64)),
        ("sub_windows_used", Json::Int(sub.used as u64)),
        (
            "steal_ticks_window",
            Json::Int(match (first.steal, last.steal) {
                (Some(a), Some(b)) => b - a,
                _ => 0,
            }),
        ),
        ("sub_window_rounds", Json::Int(sub.rounds as u64)),
        ("ops_per_s", Json::Num(sub.ops_per_s)),
        ("latency_p50_us", Json::Num(sub.p50_us)),
        ("latency_p99_us", Json::Num(sub.p99_us)),
        ("echo_us", Json::Num(sub.echo_us)),
        ("echo_ref_us", Json::Num(w.echo_ref_us)),
        ("echo_samples", Json::Int(echoes.len() as u64)),
        ("ops_per_s_norm", Json::Num(sub.ops_per_s_norm)),
        ("latency_p50_us_norm", Json::Num(sub.p50_us_norm)),
        ("latency_p99_us_norm", Json::Num(sub.p99_us_norm)),
        ("server_cpu_us_per_op", Json::Num(sub.server_cpu_us_per_op)),
        (
            "server_cpu_us_per_op_norm",
            Json::Num(sub.server_cpu_us_per_op_norm),
        ),
        ("window_ops_per_s", Json::Num(window_ops as f64 / busy_s)),
        ("window_latency_p50_us", Json::Num(us(0.5))),
        ("window_latency_p99_us", Json::Num(us(0.99))),
        ("window_latency_p999_us", Json::Num(us(0.999))),
        (
            "window_echo_p50_us",
            Json::Num(percentile(&echoes, 0.5) as f64 / 1e3),
        ),
        ("latency_samples", Json::Int(samples.len() as u64)),
        (
            "rounds_beyond_p999",
            Json::Int(samples.len() as u64 - (samples.len() as f64 * 0.999).ceil() as u64),
        ),
        ("server_rss_mib", Json::Num(rss)),
        ("fpr", Json::Num(fpr)),
        ("fpr_probes", Json::Int(fpr_check.nonmember_probes)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "failures",
            Json::obj([
                ("error_replies", Json::Int(f.error_replies)),
                ("malformed_or_out_of_order", Json::Int(f.malformed)),
                ("wrong_arity", Json::Int(f.wrong_arity)),
                ("insert_not_ok", Json::Int(f.bad_insert)),
                ("false_negatives", Json::Int(f.false_negatives)),
                ("fpr_check", Json::Int(fpr_check.failures.total())),
                ("lost_acked_inserts", Json::Int(durability_failed)),
            ]),
        ),
        (
            "bytes_in_per_op",
            Json::Num(delta(&transport_before, &transport_after, "bytes_in")? / window_ops as f64),
        ),
        (
            "bytes_out_per_op",
            Json::Num(delta(&transport_before, &transport_after, "bytes_out")? / window_ops as f64),
        ),
        ("inserts_acked_window", Json::Int(acked_window)),
        ("fsyncs_window", Json::Num(fsyncs)),
        (
            "fsync_us",
            Json::Num(if fsyncs > 0.0 {
                fsync_secs / fsyncs * 1e6
            } else {
                0.0
            }),
        ),
        (
            "fsyncs_per_mutation",
            Json::Num(if acked_window > 0 {
                fsyncs / acked_window as f64
            } else {
                0.0
            }),
        ),
        ("snapshots_window", Json::Num(snapshots)),
        ("snapshot_stall_ms", Json::Num(stall_ms)),
        (
            "recovery_s",
            Json::Num(if recovery_s.is_empty() {
                0.0
            } else {
                median(&recovery_s)
            }),
        ),
        (
            "recovery_s_each",
            Json::Arr(recovery_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "durability_note",
            Json::Str(if durable {
                "SIGKILL leaves the page cache intact: this proves acknowledged writes were \
                 logged, not that they were fsynced before the ack"
                    .into()
            } else {
                "no kill-and-restart check in this run".into()
            }),
        ),
    ]))
}
