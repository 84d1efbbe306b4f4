//! # shbf-server — a network-facing set-query daemon over Shifting Bloom
//! Filters
//!
//! The paper's pitch is that ShBF halves hashing and memory accesses for
//! membership, association, and multiplicity queries; this crate puts
//! those structures behind a TCP wire so they can actually serve traffic.
//! A **namespace registry** maps client-chosen names to filter instances:
//! membership namespaces run on the sharded concurrent
//! [`shbf_concurrent::ShardedCShbfM`], multiplicity on
//! [`shbf_core::CShbfX`], association on [`shbf_core::CShbfA`], and
//! multi-set membership on [`shbf_core::CShbfMs`]. A Bloofi-style
//! binary tree of per-namespace summary filters ([`which`]) answers
//! cross-namespace `WHICH key` queries in one sub-linear walk.
//!
//! ## Wire grammar
//!
//! Requests are single text lines (LF or CRLF), whitespace-separated;
//! verbs are case-insensitive. Keys are opaque tokens — `0x<hex>` for raw
//! bytes, anything else is taken as UTF-8. Replies use RESP framing
//! (`+simple`, `-ERR msg`, `:int`, `*n` array), so `redis-cli`-style
//! tooling can speak it.
//!
//! | Request | Reply | Notes |
//! |---|---|---|
//! | `PING` | `+PONG` | liveness |
//! | `CREATE ns kind m k [extra] [seed] [family=seeded\|one-shot]` | `+OK` | kind ∈ `shbf-m`,`shbf-x`,`shbf-a`,`multiset`; `extra` = shards (m) / max count (x) / sets (multiset, default 16); `family=one-shot` → digest-once hashing |
//! | `INSERT ns key [1\|2]` | `+OK` / `:count` | set id for `shbf-a`; `shbf-x` replies new count |
//! | `DELETE ns key [1\|2]` | `+OK` / `:count` | provably-absent deletes are `-ERR` |
//! | `QUERY ns key` | `:1` / `:0` | membership for any kind |
//! | `MQUERY ns key...` | `*n` of `:1`/`:0` | batched; one lock per touched shard |
//! | `MINSERT ns key...` | `:n` | bulk load (`shbf-m` only); one write lock per touched shard |
//! | `COUNT ns key` | `:count` | `shbf-x` only |
//! | `ASSOC ns key` | `+ONLY_S1` … | `shbf-a` only; paper's 8 outcomes |
//! | `MSINSERT ns key set-id` | `+OK` | `multiset` only; adds the key to one of the namespace's sets (idempotent) |
//! | `MSDELETE ns key set-id` | `+OK` | `multiset` only; never-inserted pairs are `-ERR` |
//! | `MSQUERY ns key` | `*n` of `:set-id` | `multiset` only; candidate sets, ascending, no false negatives |
//! | `WHICH key` | `*n` of `+name` | every namespace (any kind) possibly containing the key; Bloofi-pruned, backend-confirmed, name-sorted |
//! | `MWHICH key...` | `*n` of `*k` arrays | batched `WHICH`, one nested array per key in order |
//! | `STATS ns` | `*n` of `+k=v` | kind, geometry, items, hit/miss/insert/delete, est. FPR |
//! | `NAMESPACES` | `*n` of `+name kind` | name-sorted |
//! | `DROP ns` | `+OK` | |
//! | `SNAPSHOT path` | `+OK n namespaces` | CRC-checked single file; fsync + atomic rename |
//! | `LOAD path` | `+OK n namespaces` | replaces all namespaces; atomic on failure |
//! | `REPLICAOF host:port` / `REPLICAOF NO ONE` | `+OK` | become / stop being a read replica |
//! | `SYNC have_seq` | `+TAIL n` or `+FULL n` + `$blob` | replication handshake (replica→primary) |
//! | `PULLOPS id from max` | `*k` of `+UPTO n`, `+seq line` | replication tailing (replica→primary) |
//! | `STATS replication` | `*n` of `+k=v` | role, WAL position, replica count, lag |
//! | `STATS server` | `*n` of `+k=v` | version, pid, uptime, per-command totals |
//! | `SLOWLOG GET [n]` / `RESET` / `LEN` | `*n` / `+OK` / `:n` | slow-query ring (see [`ServerConfig::slowlog_us`]); entries carry trace id + per-phase µs |
//! | `TRACE GET [n]` / `RESET` / `LEN` | `*n` / `+OK` / `:n` | recorded request traces (see [`ServerConfig::trace_sample`]) |
//! | `FAILPOINT SET site action` / `CLEAR [site]` / `LIST` | `+OK` / `*n` | fault injection; gated behind [`ServerConfig::failpoints_admin`] |
//! | `SHUTDOWN` | `+BYE` | stops the server |
//! | `QUIT` | `+BYE` | closes the connection |
//!
//! ## Durability & replication
//!
//! With [`ServerConfig::wal_dir`] set, every successful mutation is
//! appended to a durable op-log (`shbf-wal`: CRC-framed records,
//! sequence-numbered segments, [`FsyncPolicy`] `always`/`everysec`/`no`)
//! before the reply leaves; every [`ServerConfig::snapshot_every_ops`]
//! mutations the registry is snapshotted and the log truncated behind
//! it. Boot recovery loads the newest valid snapshot and replays the log
//! tail, skipping a torn trailing record. The same log feeds **read
//! replicas**: `REPLICAOF host:port` ([`ServerConfig::replica_of`])
//! full-syncs via snapshot shipping, then tails ops with `PULLOPS`,
//! serving queries locally and rejecting mutations with
//! `-ERR read only replica`. See [`persistence`] and the `replication`
//! module docs.
//!
//! ## Fault tolerance
//!
//! The serving stack degrades predictably instead of hanging or silently
//! corrupting: per-connection **idle deadlines**
//! ([`ServerConfig::conn_idle_secs`]) reap silent connections on both
//! transports, **overload shedding** ([`ServerConfig::shed_busy`]) turns
//! connections beyond [`ServerConfig::max_connections`] into an immediate
//! `-ERR busy` instead of unbounded queueing, a WAL write failure latches
//! the server **read-only** (reads keep serving; mutations are refused
//! until the disk is fixed and the process restarts), and the replica
//! applier reconnects under capped exponential backoff with jitter. All
//! of it is testable end-to-end through `shbf-failpoint` fault-injection
//! sites (env `SHBF_FAILPOINTS`, or the `FAILPOINT` admin verb when
//! [`ServerConfig::failpoints_admin`] is on) — zero hot-path cost when no
//! failpoint is active. Client-side, [`Client::connect_timeout`],
//! [`Client::set_read_timeout`], and [`Client::call_with_retry`] bound
//! connect/read stalls and retry idempotent reads with jittered backoff.
//!
//! ## Trust model
//!
//! The protocol is **unauthenticated**: every connected client can run
//! every command, including `SNAPSHOT`/`LOAD` with server-side filesystem
//! paths and `SHUTDOWN`. Bind to loopback (the CLI default) or a trusted
//! network only; AUTH is tracked as future work in the roadmap. Setting
//! [`ServerConfig::data_dir`] sandboxes `SNAPSHOT`/`LOAD` to one
//! directory (absolute paths and `..` escapes are rejected with
//! `-ERR path outside data dir`). Per-connection memory is bounded
//! (request lines are capped at 1 MiB) and worker threads are capped by
//! [`ServerConfig::max_connections`].
//!
//! ## Transports
//!
//! Two interchangeable transports serve the protocol with
//! **byte-identical response streams** ([`ServerConfig::transport`]):
//! the portable blocking thread-per-connection model, and (on Linux) an
//! edge-triggered epoll reactor ([`TransportKind::Evented`], built on
//! `shbf-reactor`) that flushes replies with vectored writes. Both drive
//! one protocol session per connection, which serves every pipelined
//! line of a drained read in one pass and batches adjacent `QUERY`s
//! through the sharded prefetched pipeline — so the `MQUERY` fast path
//! engages automatically under pipelined load. Both transports
//! listen on TCP ([`Server::bind`]) or a UNIX-domain socket
//! ([`Server::bind_unix`]); reactor shutdown is eventfd-woken (no poll
//! timeout), and connection-level counters (accepted/closed, bytes
//! in/out, backpressure events, write-queue high-water) are reported by
//! the reserved `STATS transport` command.
//!
//! ## Observability
//!
//! Every dispatched command is timed into lock-free power-of-two
//! nanosecond histograms (`shbf-metrics`), per command kind; commands
//! slower than [`ServerConfig::slowlog_us`] land in a bounded in-memory
//! slow-query ring served by `SLOWLOG GET/RESET/LEN` (summaries carry
//! counts, never key bytes). With [`ServerConfig::metrics_addr`] set, a
//! dependency-free HTTP/1.1 listener serves `GET /metrics` in Prometheus
//! text exposition 0.0.4: command latencies and totals, per-namespace
//! hit/miss/insert/delete counters, bit occupancy, the paper's
//! Theorem-1 estimated FPR plus the observed FPR where exact-table
//! ground truth exists, WAL append/fsync latencies and segment
//! counters, replication role and lag, and the transport counters. See
//! [`metrics`] and the `STATS server` command.
//!
//! On top of the aggregates, **request-scoped tracing** (`shbf-trace`)
//! records full span trees — transport parse/dispatch/encode,
//! engine shard work, WAL append + fsync, snapshot writes, replica
//! applies — for one in [`ServerConfig::trace_sample`] requests
//! (admin/batch verbs are always traced while sampling is on; `0`
//! disables it for a single relaxed atomic load per potential span).
//! Recorded traces are served by `TRACE GET/RESET/LEN` on the command
//! port and as Chrome trace-event JSON at `GET /trace` on the metrics
//! listener (load into `chrome://tracing` or Perfetto); `GET /healthz`
//! answers readiness (role, read-only latch, WAL state). Any request
//! crossing the slowlog threshold retains its full trace, and its
//! `SLOWLOG GET` entry carries the trace id plus a per-phase breakdown.
//! Structured leveled logging ([`shbf_trace::log`]) replaces bare
//! stderr prints — text or JSON lines, trace-id stamped when emitted
//! inside a span ([`ServerConfig::log_level`],
//! [`ServerConfig::log_format`]).
//!
//! ## Layers
//!
//! [`protocol`] (codec) → [`engine`] (dispatch) → [`registry`]
//! (namespaces) → filter crates; `session` is the per-connection
//! protocol state machine both transports drive, [`server`] owns the
//! listener, the threaded accept loop and its blocking driver,
//! [`evented`](TransportKind::Evented) the reactor handler, [`snapshot`] the persistence format, [`persistence`] the
//! WAL + recovery wiring, `replication` the replica applier, and
//! [`client`] a minimal blocking client (with pipelining and `$`-framed
//! bulk replies) used by the CLI, the replica applier, and tests.
//!
//! ```no_run
//! use std::sync::Arc;
//! use shbf_server::{Engine, Server, ServerConfig};
//!
//! let engine = Arc::new(Engine::new());
//! let server = Server::bind("127.0.0.1:7878", engine, ServerConfig::default()).unwrap();
//! server.run().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// All operator-facing output goes through the structured logger
// (`shbf_trace::log`) so level filtering, JSON mode, and trace-id
// stamping apply everywhere; bare prints don't compile.
#![deny(clippy::print_stderr, clippy::print_stdout)]

pub mod client;
pub mod engine;
mod evented;
pub mod metrics;
mod metrics_http;
pub mod persistence;
pub mod protocol;
pub mod registry;
mod replication;
pub mod server;
mod session;
pub mod snapshot;
pub mod which;

pub use client::Client;
pub use engine::{
    Control, Engine, QueryScratch, REPLICATION_STATS, RESERVED_STATS, SERVER_STATS, TRANSPORT_STATS,
};
pub use metrics::{CommandKind, EngineMetrics, SlowLogEntry};
pub use protocol::{
    parse_command, parse_request, resolve_keys, scan_line, Command, FailPointSub, FamilySpec, Key,
    Keys, KindSpec, Request, Response, Scan, SlowLogSub, TraceSub,
};
pub use registry::{Namespace, Registry, RegistryError};
pub use server::{Endpoint, Server, ServerConfig, ServerHandle, TransportKind};
pub use snapshot::SnapshotError;

// The WAL flush policy rides in `ServerConfig`; re-exported so embedders
// don't need a direct `shbf-wal` dependency.
pub use shbf_wal::FsyncPolicy;

// Trace sampling and structured-logging types ride in `ServerConfig`
// (`trace_sample`, `log_level`, `log_format`); re-exported so embedders
// don't need a direct `shbf-trace` dependency.
pub use shbf_trace as trace;

// Raw client-side socket (TCP or UNIX) — benches and conformance tests
// drive servers at the byte level through this.
pub use shbf_reactor::{Stream as NetStream, TransportMetrics, TransportSnapshot};
