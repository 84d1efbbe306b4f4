//! Socket transport: the bound listener (TCP or UNIX-domain), the
//! transport selector, and the thread-per-connection worker model.
//!
//! Two transports serve the same engine behind the same wire protocol —
//! selected by [`ServerConfig::transport`], with **byte-identical
//! response streams** for any request stream:
//!
//! * [`TransportKind::Threaded`] (default): one blocking handler thread
//!   per connection, at most `max_connections` live, one request line per
//!   `read_line`/`write`/`flush` cycle. Simple, portable, and fine when
//!   clients wait for each reply.
//! * [`TransportKind::Evented`]: the `shbf-reactor` epoll loop (see
//!   [`crate::evented`]): edge-triggered readiness, all buffered lines
//!   drained per readable event, adjacent `QUERY`s batched through the
//!   sharded batch pipeline, replies flushed with vectored writes, and
//!   write-queue backpressure past [`ServerConfig::write_high_water`].
//!   Linux-only — elsewhere it falls back to the threaded transport
//!   (epoll is the only evented backend).
//!
//! Both transports serve either socket family: [`Server::bind`] for TCP,
//! [`Server::bind_unix`] for a UNIX-domain socket path (same-host
//! clients skip TCP/IP framing entirely). [`ServerHandle::endpoint`]
//! carries whichever was bound.
//!
//! Tokio is deliberately not used — the offline registry bakes in no async
//! runtime; the reactor crate declares epoll directly.
//!
//! Shutdown: `SHUTDOWN` (or [`ServerHandle::shutdown`]) sets a flag, then
//! **wakes the reactor loops through their eventfd [`Waker`]** (no poll
//! timeout to wait out) and pokes the blocking accept loop with a
//! loopback connection; in-flight connections finish their current
//! command, flush, and close.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use shbf_reactor::{Listener, Stream, Waker};
use shbf_wal::FsyncPolicy;

use crate::engine::{Control, Engine, QueryScratch};
use crate::protocol::{parse_command, Response};

/// Which connection-handling model a [`Server`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Blocking thread-per-connection workers (portable default).
    #[default]
    Threaded,
    /// Edge-triggered epoll reactor loops with pipelined parsing and
    /// vectored writes. Linux-only; other targets silently run
    /// [`Self::Threaded`].
    Evented,
}

/// Where a [`Server`] is listening — TCP address or UNIX-socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A UNIX-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// The TCP address, if this is a TCP endpoint.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Endpoint::Tcp(addr) => Some(*addr),
            Endpoint::Unix(_) => None,
        }
    }

    /// Opens a blocking client connection to this endpoint.
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => std::net::TcpStream::connect(addr).map(Stream::Tcp),
            #[cfg(unix)]
            Endpoint::Unix(path) => std::os::unix::net::UnixStream::connect(path).map(Stream::Unix),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "UNIX-domain sockets are unavailable on this target",
            )),
        }
    }

    /// Connects and immediately drops — wakes a blocking accept loop.
    fn poke(&self) {
        let _ = self.connect();
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Tunables for [`Server::bind`] / [`Server::bind_unix`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent connections (handler threads for the threaded
    /// transport; live sockets across all loops for the evented one).
    pub max_connections: usize,
    /// Connection-handling model.
    pub transport: TransportKind,
    /// Evented transport only: how many reactor loops (one thread each)
    /// share the listener. `0` → one per available CPU, capped at 8.
    pub evented_workers: usize,
    /// Evented transport only: write-queue backpressure mark in bytes —
    /// a connection whose queued replies exceed this stops being read
    /// until the peer drains half of it (`STATS transport` counts the
    /// enters/exits).
    pub write_high_water: usize,
    /// Durable op-log directory. `Some` → every successful mutation is
    /// appended to a WAL there before the reply, and existing state
    /// (snapshot + log tail) is recovered at bind time.
    pub wal_dir: Option<PathBuf>,
    /// WAL flush policy (meaningful only with [`Self::wal_dir`]).
    pub fsync: FsyncPolicy,
    /// Take a recovery snapshot and truncate the log every this many
    /// logged ops (`0` = only at forced boundaries like `LOAD`).
    pub snapshot_every_ops: u64,
    /// Sandbox root for client-supplied `SNAPSHOT`/`LOAD` paths: when
    /// set, absolute paths and `..` escapes are rejected with
    /// `-ERR path outside data dir`.
    pub data_dir: Option<PathBuf>,
    /// Start as a read replica of this `host:port` primary (mutually
    /// exclusive with [`Self::wal_dir`]).
    pub replica_of: Option<String>,
    /// Also serve Prometheus metrics over HTTP at this `host:port`
    /// (`GET /metrics`, text exposition 0.0.4). Port 0 binds an
    /// ephemeral port — read it back with [`Server::metrics_addr`].
    pub metrics_addr: Option<String>,
    /// Slow-query threshold in microseconds: a command taking at least
    /// this long lands in the `SLOWLOG` ring. `0` disables the log.
    pub slowlog_us: u64,
    /// Idle-connection deadline in seconds: a connection with no traffic
    /// for this long is closed by the server (both transports; `STATS
    /// transport` counts the reaps). `0` disables reaping.
    pub conn_idle_secs: u64,
    /// Overload shedding: at `max_connections`, new arrivals are told
    /// `-ERR busy` and closed immediately instead of queueing in the
    /// accept backlog for an unbounded wait. Off by default (queueing
    /// preserves every request when the burst is short).
    pub shed_busy: bool,
    /// Accept the test-only `FAILPOINT` admin verb (runtime fault
    /// injection — see `shbf-failpoint`). Never enable in production.
    pub failpoints_admin: bool,
    /// Head-based trace sampling: record a full span tree for one in
    /// this many client requests (`0` disables sampling; admin/batch
    /// verbs are always traced while sampling is on). Recorded traces
    /// are served by `TRACE GET` and `GET /trace` on the metrics port.
    pub trace_sample: u64,
    /// Minimum severity the structured logger emits to stderr.
    pub log_level: shbf_trace::log::Level,
    /// Structured log line shape: human-readable text or one JSON
    /// object per line.
    pub log_format: shbf_trace::log::Format,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            transport: TransportKind::default(),
            evented_workers: 0,
            write_high_water: 1 << 20,
            wal_dir: None,
            fsync: FsyncPolicy::default(),
            snapshot_every_ops: 10_000,
            data_dir: None,
            replica_of: None,
            metrics_addr: None,
            slowlog_us: crate::metrics::DEFAULT_SLOWLOG_US,
            conn_idle_secs: 0,
            shed_busy: false,
            failpoints_admin: false,
            trace_sample: 0,
            log_level: shbf_trace::log::Level::Info,
            log_format: shbf_trace::log::Format::Text,
        }
    }
}

impl ServerConfig {
    /// The idle deadline as a `Duration`, `None` when disabled.
    pub(crate) fn idle_deadline(&self) -> Option<std::time::Duration> {
        (self.conn_idle_secs > 0).then(|| std::time::Duration::from_secs(self.conn_idle_secs))
    }

    pub(crate) fn effective_evented_workers(&self) -> usize {
        if self.evented_workers > 0 {
            return self.evented_workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// Counting semaphore bounding live connection handlers.
struct ConnSlots {
    state: Mutex<usize>,
    freed: Condvar,
    max: usize,
}

impl ConnSlots {
    fn new(max: usize) -> Self {
        ConnSlots {
            state: Mutex::new(0),
            freed: Condvar::new(),
            max: max.max(1),
        }
    }

    fn acquire(self: &Arc<Self>) -> SlotGuard {
        let mut active = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while *active >= self.max {
            active = self.freed.wait(active).unwrap_or_else(|e| e.into_inner());
        }
        *active += 1;
        SlotGuard {
            slots: Arc::clone(self),
        }
    }

    /// Nonblocking acquire for the shedding accept loop: `None` when the
    /// server is at capacity.
    fn try_acquire(self: &Arc<Self>) -> Option<SlotGuard> {
        let mut active = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if *active >= self.max {
            return None;
        }
        *active += 1;
        Some(SlotGuard {
            slots: Arc::clone(self),
        })
    }

    fn release(&self) {
        let mut active = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *active -= 1;
        self.freed.notify_one();
    }
}

/// RAII slot: released on drop, so a panicking connection handler still
/// returns its slot instead of shrinking capacity forever.
struct SlotGuard {
    slots: Arc<ConnSlots>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.slots.release();
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: Listener,
    endpoint: Endpoint,
    engine: Arc<Engine>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    metrics: Option<crate::metrics_http::MetricsEndpoint>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    endpoint: Endpoint,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Binds a TCP listener on `addr` (use port 0 for an ephemeral port)
    /// serving `engine`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let endpoint = Endpoint::Tcp(listener.local_addr()?);
        Self::from_listener(listener.into(), endpoint, engine, config)
    }

    /// Binds a UNIX-domain listener on `path` serving `engine`. A stale
    /// socket file left by a previous run is removed first (only a
    /// socket — a regular file at that path is an error, not collateral).
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl Into<PathBuf>,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        use std::os::unix::fs::FileTypeExt;
        let path = path.into();
        if let Ok(meta) = std::fs::symlink_metadata(&path) {
            if meta.file_type().is_socket() {
                std::fs::remove_file(&path)?;
            }
        }
        let listener = std::os::unix::net::UnixListener::bind(&path)?;
        Self::from_listener(listener.into(), Endpoint::Unix(path), engine, config)
    }

    fn from_listener(
        listener: Listener,
        endpoint: Endpoint,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        engine.attach_self();
        shbf_trace::log::init(config.log_level, config.log_format);
        shbf_trace::set_sampling(config.trace_sample);
        // A bad SHBF_FAILPOINTS string refuses to start rather than run a
        // chaos scenario silently different from the one scripted.
        shbf_failpoint::init_from_env().map_err(std::io::Error::other)?;
        if config.failpoints_admin {
            engine.enable_failpoints_admin();
        }
        if let Some(dir) = &config.data_dir {
            engine.set_data_dir(dir)?;
        }
        if config.wal_dir.is_some() && config.replica_of.is_some() {
            return Err(std::io::Error::other(
                "wal_dir and replica_of are mutually exclusive (a replica \
                 tails the primary's log instead of writing its own)",
            ));
        }
        if let Some(dir) = &config.wal_dir {
            // Recovery happens here: newest snapshot + op-log tail.
            engine.enable_wal(dir, config.fsync, config.snapshot_every_ops)?;
        }
        if let Some(primary) = &config.replica_of {
            crate::replication::attach(&engine, primary).map_err(std::io::Error::other)?;
        }
        engine.metrics().set_slowlog_threshold_us(config.slowlog_us);
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = match &config.metrics_addr {
            Some(addr) => Some(crate::metrics_http::MetricsEndpoint::bind(
                addr.as_str(),
                Arc::clone(&engine),
                Arc::clone(&shutdown),
            )?),
            None => None,
        };
        shbf_trace::log::info(
            "server",
            "listening",
            &[
                ("endpoint", &format_args!("{endpoint:?}")),
                ("transport", &format_args!("{:?}", config.transport)),
                ("wal", &config.wal_dir.is_some()),
                ("replica", &config.replica_of.is_some()),
                (
                    "trace_sample",
                    &shbf_trace::sample_string(config.trace_sample),
                ),
            ],
        );
        Ok(Server {
            listener,
            endpoint,
            engine,
            config,
            shutdown,
            waker: Waker::new()?,
            metrics,
        })
    }

    /// Where the Prometheus `/metrics` endpoint is listening, when
    /// [`ServerConfig::metrics_addr`] was set (resolves ephemeral ports).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// Where the server is listening (resolves ephemeral TCP ports).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The bound TCP address; `Unsupported` for a UNIX-socket server
    /// (use [`Self::endpoint`]).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.endpoint.tcp_addr().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "UNIX-socket server has no TCP address; use endpoint()",
            )
        })
    }

    /// Runs the server on this thread until shutdown, using the
    /// configured transport. A UNIX socket file is removed on return.
    pub fn run(mut self) -> std::io::Result<()> {
        let endpoint = self.endpoint.clone();
        let engine = Arc::clone(&self.engine);
        let shutdown = Arc::clone(&self.shutdown);
        let metrics = self.metrics.take();
        let result = match self.config.transport {
            TransportKind::Threaded => self.run_threaded(),
            TransportKind::Evented if shbf_reactor::SUPPORTED => crate::evented::run(
                self.listener,
                self.engine,
                self.shutdown,
                self.waker,
                &self.config,
            ),
            // Documented fallback: evented requested on a target without
            // epoll — serve with the threaded model instead of failing.
            TransportKind::Evented => self.run_threaded(),
        };
        // The transport only returns once shutdown is underway; make the
        // flag visible before poking the metrics accept loop so its
        // thread exits instead of serving the poke as a scrape.
        shutdown.store(true, Ordering::SeqCst);
        if let Some(metrics) = metrics {
            metrics.stop();
        }
        // A replica's applier thread holds the engine alive while its
        // primary link is healthy; detach so a stopped server doesn't
        // keep tailing (and eventually spamming reconnect errors).
        engine.replication().detach();
        // A clean shutdown leaves no acknowledged-but-unflushed tail
        // behind, whatever the fsync policy's steady-state window is.
        engine.sync_wal();
        if let Endpoint::Unix(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
        result
    }

    /// The blocking accept loop of the threaded transport.
    fn run_threaded(self) -> std::io::Result<()> {
        let endpoint = self.endpoint.clone();
        let slots = Arc::new(ConnSlots::new(self.config.max_connections));
        let idle = self.config.idle_deadline();
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match self.listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => continue, // transient accept error; keep serving
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Failpoint `transport::accept`: drop the fresh socket as if
            // setup had failed — the peer sees a reset.
            if shbf_failpoint::fail("transport::accept").is_some() {
                continue;
            }
            let slot = if self.config.shed_busy {
                match slots.try_acquire() {
                    Some(slot) => slot,
                    None => {
                        // Overload shedding: an immediate, parseable
                        // error beats an unbounded queueing delay.
                        let mut stream = stream;
                        let _ = stream.write_all(BUSY_REPLY);
                        self.engine.transport_metrics().on_shed();
                        continue;
                    }
                }
            } else {
                slots.acquire()
            };
            let engine = Arc::clone(&self.engine);
            let shutdown = Arc::clone(&self.shutdown);
            let endpoint = endpoint.clone();
            engine.transport_metrics().on_accept();
            handlers.push(std::thread::spawn(move || {
                let _slot = slot; // held for the connection's lifetime
                let _ = handle_connection(stream, &engine, &shutdown, &endpoint, idle);
                engine.transport_metrics().on_close();
            }));
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread, returning a handle.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let endpoint = self.endpoint.clone();
        let metrics_addr = self.metrics_addr();
        let shutdown = Arc::clone(&self.shutdown);
        let waker = self.waker.clone();
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            endpoint,
            metrics_addr,
            shutdown,
            waker,
            thread,
        })
    }
}

impl ServerHandle {
    /// The TCP address clients should connect to.
    ///
    /// # Panics
    /// For a UNIX-socket server — use [`Self::endpoint`] there.
    pub fn addr(&self) -> SocketAddr {
        self.endpoint
            .tcp_addr()
            .expect("UNIX-socket server has no TCP address; use endpoint()")
    }

    /// Where the server is listening.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Where the Prometheus `/metrics` endpoint is listening, when one
    /// was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Stops the server and joins its thread. Reactor loops are woken
    /// through the eventfd waker (bounded latency — no poll-timeout
    /// stall); the blocking accept loop is poked with a throwaway
    /// connection. In-flight connections close after their current
    /// command; a UNIX socket file is removed.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        self.endpoint.poke();
        let result = match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        };
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// Longest accepted request line (1 MiB) — bounds per-connection memory
/// on both transports.
pub(crate) const MAX_REQUEST_LINE: usize = 1 << 20;

/// What an overload-shed connection is told before the close
/// ([`ServerConfig::shed_busy`]; both transports send the same bytes).
pub(crate) const BUSY_REPLY: &[u8] = b"-ERR busy\r\n";

fn reject_oversized(writer: &mut Stream, out: &mut Vec<u8>) -> std::io::Result<()> {
    out.clear();
    Response::Error(format!(
        "protocol: request line exceeds {MAX_REQUEST_LINE} bytes"
    ))
    .encode(out);
    let _ = writer.write_all(out);
    Ok(())
}

fn handle_connection(
    stream: Stream,
    engine: &Engine,
    shutdown: &AtomicBool,
    endpoint: &Endpoint,
    idle: Option<std::time::Duration>,
) -> std::io::Result<()> {
    let metrics = engine.transport_metrics();
    stream.set_nodelay(true).ok();
    // Bounded reads so a connection parked in `read_line` observes a
    // server shutdown within one poll interval instead of blocking the
    // run loop's join forever.
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(200)))
        .ok();
    // The reader is layered over `Take` so one request line can never
    // pull more than its budget off the socket: without the limit, a
    // peer streaming newline-free bytes would keep `read_line`
    // accumulating unboundedly (data keeps arriving, so neither the
    // newline nor the timeout path is ever reached).
    let mut reader = BufReader::new(stream.try_clone()?.take(0));
    let mut writer = stream;
    let mut line = String::new();
    let mut out = Vec::with_capacity(256);
    // Batch-query scratch: MQUERY verdicts and shard-grouping buffers are
    // recycled across this connection's requests instead of reallocated.
    let mut scratch = QueryScratch::new();
    // Idle reaping rides the 200 ms read-timeout poll: each timeout
    // checks how long the connection has been silent.
    let mut last_activity = std::time::Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        // Failpoint `transport::read`: the socket read fails mid-stream;
        // the connection is torn down like any other read error.
        if let Some(msg) = shbf_failpoint::fail("transport::read") {
            return Err(std::io::Error::other(msg));
        }
        // `line` deliberately accumulates across timeouts: a read timeout
        // mid-line must not discard the partial line already buffered.
        // The remaining budget lets it grow just past the cap, so the
        // oversize checks below fire; `line.len() <= MAX` here (larger
        // was rejected last iteration), hence the budget is >= 2 and a
        // `read_line` -> `Ok(0)` can only mean peer EOF, never an
        // exhausted limit.
        reader
            .get_mut()
            .set_limit((MAX_REQUEST_LINE + 2 - line.len()) as u64);
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                metrics.add_bytes_in(n as u64);
                last_activity = std::time::Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if line.len() > MAX_REQUEST_LINE {
                    return reject_oversized(&mut writer, &mut out);
                }
                if let Some(limit) = idle {
                    if last_activity.elapsed() >= limit {
                        metrics.on_idle_reap();
                        return Ok(());
                    }
                }
                continue;
            }
            // Non-UTF-8 bytes on a text protocol: tell the peer why
            // before closing, instead of silently dropping the link.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                out.clear();
                Response::Error("protocol: request is not valid UTF-8".into()).encode(&mut out);
                let _ = writer.write_all(&out);
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        if line.len() > MAX_REQUEST_LINE {
            return reject_oversized(&mut writer, &mut out);
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            line.clear();
            continue;
        }
        let mut trace = shbf_trace::start(engine.trace(), "request");
        let parse_span = shbf_trace::span("parse");
        let parsed = parse_command(trimmed);
        drop(parse_span);
        // Admin/batch verbs are always traced while sampling is on: they
        // are rare and expensive, exactly the requests worth keeping.
        if !trace.is_armed() {
            if let Ok(cmd) = &parsed {
                if !crate::metrics::CommandKind::of(cmd).sampled() {
                    trace = shbf_trace::start_forced(engine.trace(), "request");
                }
            }
        }
        if trace.is_armed() {
            trace.attr("transport", "threaded");
        }
        let (response, control) = match parsed {
            Ok(cmd) => {
                let span = shbf_trace::span("dispatch");
                let r = engine.dispatch_with(&cmd, &mut scratch);
                drop(span);
                r
            }
            Err(e) => (Response::Error(e.to_string()), Control::Continue),
        };
        line.clear();
        out.clear();
        let encode_span = shbf_trace::span("encode");
        response.encode(&mut out);
        drop(encode_span);
        scratch.reclaim(response);
        // Failpoint `transport::writev`: the reply write fails (shared
        // site name with the evented flush path).
        if let Some(msg) = shbf_failpoint::fail("transport::writev") {
            return Err(std::io::Error::other(msg));
        }
        let write_span = shbf_trace::span("write");
        writer.write_all(&out)?;
        writer.flush()?;
        drop(write_span);
        drop(trace);
        metrics.add_bytes_out(out.len() as u64);
        match control {
            Control::Continue => {}
            Control::CloseConnection => return Ok(()),
            Control::ShutdownServer => {
                shutdown.store(true, Ordering::SeqCst);
                // Wake the acceptor so the whole server exits.
                endpoint.poke();
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_slots_bound_concurrency() {
        let slots = Arc::new(ConnSlots::new(2));
        let g1 = slots.acquire();
        let g2 = slots.acquire();
        let s = Arc::clone(&slots);
        let t = std::thread::spawn(move || {
            let _g3 = s.acquire(); // blocks until a release
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!t.is_finished(), "third acquire should block at max=2");
        drop(g1);
        t.join().unwrap();
        drop(g2);
    }

    #[test]
    fn conn_slot_released_even_on_panic() {
        let slots = Arc::new(ConnSlots::new(1));
        let s = Arc::clone(&slots);
        let panicker = std::thread::spawn(move || {
            let _g = s.acquire();
            panic!("handler died");
        });
        assert!(panicker.join().is_err());
        // The slot came back: this would deadlock if the panic leaked it.
        let _g = slots.acquire();
    }

    #[test]
    fn evented_transport_serves_pipelined_clients() {
        let engine = Arc::new(Engine::new());
        let config = ServerConfig {
            transport: TransportKind::Evented,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", engine, config).unwrap();
        let handle = server.spawn().unwrap();
        let mut client = crate::client::Client::connect(handle.addr()).unwrap();
        assert_eq!(client.send("PING").unwrap(), vec!["+PONG".to_string()]);
        assert_eq!(
            client.send("CREATE ns shbf-m 100000 8").unwrap(),
            vec!["+OK".to_string()]
        );
        // One pipelined batch: inserts, grouped queries, an MQUERY, and a
        // protocol error — replies must come back in order.
        let replies = client
            .send_pipelined(&[
                "INSERT ns alpha",
                "INSERT ns bravo",
                "QUERY ns alpha",
                "QUERY ns bravo",
                "QUERY ns never-inserted-xyzzy",
                "MQUERY ns alpha never-inserted-xyzzy",
                "NONSENSE",
            ])
            .unwrap();
        let flat: Vec<Vec<String>> = replies;
        assert_eq!(flat[0], vec!["+OK"]);
        assert_eq!(flat[1], vec!["+OK"]);
        assert_eq!(flat[2], vec![":1"]);
        assert_eq!(flat[3], vec![":1"]);
        assert_eq!(flat[4], vec![":0"]);
        assert_eq!(flat[5], vec!["*2", ":1", ":0"]);
        assert!(flat[6][0].starts_with("-ERR"));
        // QUIT closes only this connection; SHUTDOWN (below) the server.
        assert_eq!(client.send("QUIT").unwrap(), vec!["+BYE".to_string()]);
        let mut second = crate::client::Client::connect(handle.addr()).unwrap();
        assert_eq!(second.send("SHUTDOWN").unwrap(), vec!["+BYE".to_string()]);
        handle.shutdown().unwrap();
    }

    #[cfg(unix)]
    fn temp_socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "shbf-server-test-{tag}-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_serves_both_transports() {
        for transport in [TransportKind::Threaded, TransportKind::Evented] {
            let engine = Arc::new(Engine::new());
            let config = ServerConfig {
                transport,
                ..ServerConfig::default()
            };
            let path = temp_socket_path(match transport {
                TransportKind::Threaded => "threaded",
                TransportKind::Evented => "evented",
            });
            let server = Server::bind_unix(&path, engine, config).unwrap();
            let handle = server.spawn().unwrap();
            assert_eq!(handle.endpoint(), &Endpoint::Unix(path.clone()));
            let mut client = crate::client::Client::connect_unix(&path).unwrap();
            assert_eq!(client.send("PING").unwrap(), vec!["+PONG".to_string()]);
            assert_eq!(
                client.send("CREATE u shbf-m 65536 8").unwrap(),
                vec!["+OK".to_string()]
            );
            assert_eq!(
                client.send("INSERT u key").unwrap(),
                vec!["+OK".to_string()]
            );
            assert_eq!(client.send("QUERY u key").unwrap(), vec![":1".to_string()]);
            drop(client);
            handle.shutdown().unwrap();
            assert!(
                !path.exists(),
                "{transport:?}: socket file not cleaned up on shutdown"
            );
        }
    }

    /// Runs one request script against a fresh server and returns the
    /// per-request reply lines, for cross-transport byte-identity checks.
    fn run_script(transport: TransportKind, unix: bool, script: &[&str]) -> Vec<Vec<String>> {
        let engine = Arc::new(Engine::new());
        let config = ServerConfig {
            transport,
            ..ServerConfig::default()
        };
        let (handle, mut client) = if unix {
            #[cfg(not(unix))]
            unreachable!("unix sockets are not exercised on this platform");
            #[cfg(unix)]
            {
                let path = temp_socket_path(&format!("conformance-{transport:?}"));
                let handle = Server::bind_unix(&path, engine, config)
                    .unwrap()
                    .spawn()
                    .unwrap();
                let client = crate::client::Client::connect_unix(&path).unwrap();
                (handle, client)
            }
        } else {
            let handle = Server::bind("127.0.0.1:0", engine, config)
                .unwrap()
                .spawn()
                .unwrap();
            let client = crate::client::Client::connect(handle.addr()).unwrap();
            (handle, client)
        };
        let replies = client.send_pipelined(script).unwrap();
        drop(client);
        handle.shutdown().unwrap();
        replies
    }

    #[test]
    fn which_and_multiset_replies_agree_across_transports() {
        // One script covering the cross-namespace verbs end to end:
        // multiset lifecycle, WHICH across kinds, a batched MWHICH, and
        // the error shapes. Every transport × socket combination must
        // produce byte-identical reply streams.
        let script = [
            "CREATE flows shbf-m 120000 8 4 7",
            "CREATE tags multiset 8192 4 8 7",
            "CREATE gw shbf-a 8192 6",
            "INSERT flows shared-key",
            "MSINSERT tags shared-key 3",
            "MSINSERT tags shared-key 3",
            "MSINSERT tags other-key 5",
            "INSERT gw solo-key 1",
            "MSQUERY tags shared-key",
            "QUERY tags shared-key",
            "WHICH shared-key",
            "WHICH solo-key",
            "WHICH never-anywhere-xyzzy",
            "MWHICH shared-key solo-key other-key never-anywhere-xyzzy",
            "MSDELETE tags shared-key 3",
            "MSDELETE tags shared-key 3",
            "WHICH shared-key",
            "MSINSERT flows bad-kind 1",
            "MSQUERY gw bad-kind",
            "INSERT tags bad-verb",
        ];
        let mut combos = vec![
            (TransportKind::Threaded, false),
            (TransportKind::Evented, false),
        ];
        if cfg!(unix) {
            combos.push((TransportKind::Threaded, true));
            combos.push((TransportKind::Evented, true));
        }
        let reference = run_script(combos[0].0, combos[0].1, &script);
        assert_eq!(reference.len(), script.len());
        assert_eq!(reference[10], vec!["*2", "+flows", "+tags"]);
        assert_eq!(reference[11], vec!["*1", "+gw"]);
        assert_eq!(reference[12], vec!["*0"]);
        for &(transport, unix) in &combos[1..] {
            let got = run_script(transport, unix, &script);
            assert_eq!(
                got, reference,
                "reply stream diverged on {transport:?} unix={unix}"
            );
        }
    }

    #[test]
    fn shutdown_via_handle_unblocks_accept() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();
        // Server is alive: a PING roundtrips.
        let mut client = crate::client::Client::connect(addr).unwrap();
        assert_eq!(client.send("PING").unwrap(), vec!["+PONG".to_string()]);
        drop(client);
        handle.shutdown().unwrap();
        // After shutdown new connections can't complete a roundtrip.
        let gone = crate::client::Client::connect(addr)
            .and_then(|mut c| c.send("PING"))
            .is_err();
        assert!(gone, "server still answering after shutdown");
    }
}
