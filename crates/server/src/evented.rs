//! Evented transport: the `shbf-reactor` epoll loop speaking the line
//! protocol, with **pipelined batch formation**.
//!
//! Where the threaded transport handles one request line per
//! `read_line`/`write`/`flush` cycle, each readable event here drains
//! *every* complete line buffered on the connection in one pass
//! (edge-triggered — the reactor re-drives leftover readiness from
//! userspace), and each turn's replies leave as one buffer on the
//! connection's write queue, flushed with `writev` — no coalescing copy.
//! On top of that, runs of adjacent `QUERY` lines against the same
//! namespace are grouped into a single [`Engine`] batch ride over the
//! existing [`QueryScratch`] path — the same shard-grouped, prefetched
//! pipeline `MQUERY` uses — so `MQUERY`-sized batches form naturally
//! from pipelined clients without anyone hand-building an `MQUERY`.
//! Line framing itself is [`scan_line`], shared with the proptest suite
//! that replays arbitrary chunkings against single-shot parsing.
//!
//! **The read path is zero-copy.** `QUERY` and `MQUERY` lines go through
//! the borrowed front-end [`parse_request`]: the namespace and every
//! plain key stay slices of the drained input, and a pending `QUERY`
//! group is a list of those slices. At flush, [`resolve_keys`] hands the
//! engine one slice per key; `0x…` keys are decoded into one reused
//! per-connection buffer. The invariant that makes this sound: **a
//! pending group never outlives `on_data`.** It is answered at the next
//! boundary line and, at the latest, before `on_data` returns and the
//! reactor discards the consumed input. The group is a local that
//! borrows `input`, so the compiler enforces it. Its buffers are kept
//! between calls only as empty allocations. In steady state a plain-key
//! `QUERY` or `MQUERY` allocates nothing between the read and the reply.
//! Every other verb is parsed by the same grammar into an owned
//! [`Command`](crate::Command).
//!
//! **Response streams are byte-identical to the threaded transport** for
//! any request stream, however it is segmented: grouped `QUERY` verdicts
//! are re-encoded as the individual `:1`/`:0` lines (batch == scalar
//! verdicts are guaranteed by the `batch_equivalence` suite), errors are
//! replicated per grouped query, and per-namespace hit/miss counters
//! advance exactly as the scalar path would
//! (`tests/protocol_segmentation.rs` asserts all of this byte-for-byte).
//! The command series match too: a group counts one `query` per line,
//! as the threaded transport does, never an `mquery`.
//!
//! Several reactor loops (one thread each) can share the listener; each
//! owns its accepted connections outright, so no cross-thread connection
//! state exists — the engine's registry is the only shared structure.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use shbf_reactor::{Action, Drained, Handler, Listener, ReactorConfig, Waker};

use crate::engine::{BatchOrigin, Control, Engine, QueryScratch};
use crate::protocol::{parse_request, resolve_keys, scan_line, Key, Request, Response, Scan};
use crate::server::{ServerConfig, MAX_REQUEST_LINE};

/// Runs the configured number of reactor loops over `listener` until
/// shutdown. The calling thread runs one loop itself; the rest are
/// spawned and joined before returning, so the caller's lifecycle matches
/// the threaded transport's `run`. All loops share `waker` (one eventfd):
/// a single wake — from [`crate::ServerHandle::shutdown`] or from a
/// handler's `Action::Shutdown` — stops the whole fleet with no
/// poll-timeout stall. They also share the engine's
/// [`shbf_reactor::TransportMetrics`], which `STATS transport` reports.
pub(crate) fn run(
    listener: Listener,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    config: &ServerConfig,
) -> std::io::Result<()> {
    // The connection cap is distributed exactly across loops (the first
    // `rem` loops take one extra), so the configured total stays the
    // global bound; loops beyond the cap would sit idle, so don't spawn
    // them.
    let max_connections = config.max_connections.max(1);
    let workers = config.effective_evented_workers().clamp(1, max_connections);
    let base = max_connections / workers;
    let rem = max_connections % workers;
    let high_water = config.write_high_water;
    let shed_reply: Option<Arc<[u8]>> = config
        .shed_busy
        .then(|| Arc::from(crate::server::BUSY_REPLY));
    let idle_timeout = config.idle_deadline();
    let config_for = move |i: usize| ReactorConfig {
        max_connections: base + usize::from(i < rem),
        high_water,
        shed_reply: shed_reply.clone(),
        idle_timeout,
    };
    let mut spawned = Vec::with_capacity(workers - 1);
    for i in 1..workers {
        let listener = listener.try_clone()?;
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        let waker = waker.clone();
        let config = config_for(i);
        spawned.push(std::thread::spawn(move || {
            let metrics = Arc::clone(engine.transport_metrics());
            let mut handler = EventedHandler::new(engine);
            shbf_reactor::run(listener, &mut handler, &shutdown, &config, &waker, &metrics)
        }));
    }
    let metrics = Arc::clone(engine.transport_metrics());
    let mut handler = EventedHandler::new(engine);
    let result = shbf_reactor::run(
        listener,
        &mut handler,
        &shutdown,
        &config_for(0),
        &waker,
        &metrics,
    );
    // A loop that returned on shutdown may have observed the flag before
    // its siblings were woken; re-wake so every join below completes.
    let _ = waker.wake();
    for t in spawned {
        let _ = t.join();
    }
    result
}

/// Per-connection protocol state: the recycled batch-query scratch and
/// the buffers the zero-copy read path lends out for each drained input.
#[derive(Default)]
struct ConnState {
    scratch: QueryScratch,
    /// Decoded bytes of the `0x…` keys of the batch being answered.
    hex: Vec<u8>,
    /// Allocation of the pending [`Group`]'s key list, kept empty between
    /// calls (the list borrows each call's input; see
    /// [`shbf_concurrent::recycle`]).
    group_keys: Vec<Key<'static>>,
    /// Allocation of the resolved key slices handed to the engine, kept
    /// empty the same way.
    slices: Vec<&'static [u8]>,
}

/// A run of adjacent pipelined `QUERY` lines on one namespace, answered
/// as one batch at the next non-QUERY line, namespace switch, or end of
/// the drained input. It borrows the input buffer, so it is answered
/// before `on_data` returns and no key is ever copied out of the buffer.
struct Group<'a> {
    ns: &'a str,
    keys: Vec<Key<'a>>,
}

/// The protocol driver handed to the reactor.
struct EventedHandler {
    engine: Arc<Engine>,
    conns: HashMap<u64, ConnState>,
}

impl EventedHandler {
    fn new(engine: Arc<Engine>) -> Self {
        EventedHandler {
            engine,
            conns: HashMap::new(),
        }
    }
}

/// Answers a batch of keys through the engine's batch entry: plain keys
/// are handed over as slices of the input, `0x…` keys as slices of the
/// connection's decode buffer.
fn answer_batch<'a>(
    engine: &Engine,
    state: &mut ConnState,
    ns: &str,
    keys: impl Iterator<Item = Key<'a>> + Clone,
    origin: BatchOrigin,
) -> Response {
    let mut slices: Vec<&[u8]> = std::mem::take(&mut state.slices);
    resolve_keys(keys, &mut state.hex, &mut slices);
    let response = engine.mquery_raw(ns, &slices, &mut state.scratch, origin);
    state.slices = shbf_concurrent::recycle(slices);
    response
}

/// Answers the pending query group: one engine batch ride, re-encoded as
/// the individual `QUERY` replies (`:1`/`:0` lines, or the identical
/// per-query error). No-op when the group is empty.
fn flush_group(engine: &Engine, state: &mut ConnState, group: &mut Group<'_>, out: &mut Vec<u8>) {
    if group.keys.is_empty() {
        return;
    }
    // The coalesced group is one logical request; when a boundary command
    // is already tracing this thread, `start` nests out and the batch's
    // spans land under that trace instead.
    let trace = shbf_trace::start(engine.trace(), "request");
    if trace.is_armed() {
        trace.attr("transport", "evented");
        trace.attr("batch", group.keys.len());
    }
    let dispatch_span = shbf_trace::span("dispatch");
    let keys = group.keys.iter().copied();
    let response = answer_batch(engine, state, group.ns, keys, BatchOrigin::QueryGroup);
    drop(dispatch_span);
    let encode_span = shbf_trace::span("encode");
    match &response {
        Response::Verdicts(verdicts) => {
            for &hit in verdicts {
                out.extend_from_slice(if hit { b":1\r\n" } else { b":0\r\n" });
            }
        }
        // Unknown namespace and friends: each scalar QUERY would have
        // produced this very error, once per line.
        other => {
            for _ in &group.keys {
                other.encode(out);
            }
        }
    }
    drop(encode_span);
    state.scratch.reclaim(response);
    group.keys.clear();
}

fn oversized_error(out: &mut Vec<u8>) {
    Response::Error(format!(
        "protocol: request line exceeds {MAX_REQUEST_LINE} bytes"
    ))
    .encode(out);
}

impl Handler for EventedHandler {
    fn on_data(&mut self, token: u64, input: &[u8], eof: bool, out: &mut Vec<u8>) -> Drained {
        let engine = &self.engine;
        let state = self.conns.entry(token).or_default();
        let mut group = Group {
            ns: "",
            keys: std::mem::take(&mut state.group_keys),
        };
        let mut consumed = 0;
        let action = loop {
            let rest = &input[consumed..];
            if rest.is_empty() {
                break Action::Continue;
            }
            let (line, advance) = match scan_line(rest, eof, MAX_REQUEST_LINE) {
                Scan::Line { line, advance } => (line, advance),
                // Partial line: wait for more bytes (the scanner already
                // enforced the request-line cap on the buffered prefix).
                Scan::Incomplete => break Action::Continue,
                Scan::Oversize => {
                    flush_group(engine, state, &mut group, out);
                    oversized_error(out);
                    break Action::Close;
                }
            };
            consumed += advance;
            let text = match std::str::from_utf8(line) {
                Ok(text) => text,
                Err(_) => {
                    flush_group(engine, state, &mut group, out);
                    Response::Error("protocol: request is not valid UTF-8".into()).encode(out);
                    break Action::Close;
                }
            };
            let trimmed = text.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                continue;
            }
            let mut trace = shbf_trace::start(engine.trace(), "request");
            let parse_span = shbf_trace::span("parse");
            let parsed = parse_request(trimmed);
            drop(parse_span);
            let request = match parsed {
                Err(e) => {
                    flush_group(engine, state, &mut group, out);
                    let encode_span = shbf_trace::span("encode");
                    Response::Error(e.to_string()).encode(out);
                    drop(encode_span);
                    continue;
                }
                // Adjacent QUERYs on one namespace coalesce into a batch;
                // the group is traced as one request at flush time.
                Ok(Request::Query { ns, key }) => {
                    trace.cancel();
                    if group.ns != ns {
                        flush_group(engine, state, &mut group, out);
                        group.ns = ns;
                    }
                    group.keys.push(key);
                    continue;
                }
                Ok(request) => request,
            };
            // Everything else is a batch boundary: answer the group first
            // so replies stay in request order. Admin/batch verbs are
            // always traced while sampling is on (same rule as the
            // threaded transport).
            let sampled = match &request {
                Request::Command(cmd) => crate::metrics::CommandKind::of(cmd).sampled(),
                _ => false,
            };
            if !trace.is_armed() && !sampled {
                trace = shbf_trace::start_forced(engine.trace(), "request");
            }
            if trace.is_armed() {
                trace.attr("transport", "evented");
            }
            flush_group(engine, state, &mut group, out);
            let dispatch_span = shbf_trace::span("dispatch");
            let (response, control) = match request {
                Request::MQuery { ns, keys } => (
                    answer_batch(engine, state, ns, keys, BatchOrigin::MQuery),
                    Control::Continue,
                ),
                request => engine.dispatch_with(&request.into_command(), &mut state.scratch),
            };
            drop(dispatch_span);
            let encode_span = shbf_trace::span("encode");
            response.encode(out);
            drop(encode_span);
            state.scratch.reclaim(response);
            match control {
                Control::Continue => {}
                Control::CloseConnection => break Action::Close,
                Control::ShutdownServer => break Action::Shutdown,
            }
        };
        flush_group(engine, state, &mut group, out);
        state.group_keys = shbf_concurrent::recycle(group.keys);
        Drained { consumed, action }
    }

    fn on_close(&mut self, token: u64) {
        self.conns.remove(&token);
    }
}
