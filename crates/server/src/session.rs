//! The protocol session: one connection's side of the line protocol,
//! shared by both transports.
//!
//! A [`Session`] is handed every byte buffered on its connection and
//! answers with the consumed prefix and what to do next ([`Drained`]).
//! In one call it frames every complete line with [`scan_line`], rejects
//! oversize and non-UTF-8 lines, arms the request trace, parses, groups
//! adjacent `QUERY`s, dispatches, and appends the encoded replies to one
//! output buffer. The transports around it only move bytes: the evented
//! reactor (`crate::evented`) calls it once per readable turn and queues
//! the output for `writev`; the threaded driver (`crate::server`) calls
//! it once per blocking read and writes the output with one `write_all`.
//! Either way the replies to one drained input leave in one write, so no
//! per-request `write` span exists and `SLOWLOG`'s `write=` column reads
//! 0 on traced entries.
//!
//! **Pipelined batch formation.** Runs of adjacent `QUERY` lines against
//! the same namespace are grouped into a single [`Engine`] batch ride over
//! the existing [`QueryScratch`] path — the same sharded, prefetched
//! pipeline `MQUERY` uses — so `MQUERY`-sized batches form naturally from
//! pipelined clients without anyone hand-building an `MQUERY`. Grouped
//! verdicts are re-encoded as the individual `:1`/`:0` lines (batch ==
//! scalar verdicts are guaranteed by the `batch_equivalence` suite),
//! errors are replicated per grouped query, per-namespace hit/miss
//! counters advance exactly as the scalar path would, and a group counts
//! one `query` per line in the command series, never an `mquery`.
//! Framing is a pure function of the buffered bytes, so a response
//! stream is the same however the request stream is segmented
//! (`tests/protocol_segmentation.rs` asserts it byte-for-byte).
//!
//! **The read path is zero-copy.** `QUERY` and `MQUERY` lines go through
//! the borrowed front-end [`parse_request`]: the namespace and every
//! plain key stay slices of the drained input, and a pending `QUERY`
//! group is a list of those slices. At flush, [`resolve_keys`] hands the
//! engine one slice per key; `0x…` keys are decoded into one reused
//! per-session buffer. The invariant that makes this sound: **a pending
//! group never outlives `on_data`.** It is answered at the next boundary
//! line and, at the latest, before `on_data` returns and the transport
//! discards the consumed input. The group is a local that borrows
//! `input`, so the compiler enforces it. Its buffers are kept between
//! calls only as empty allocations. In steady state a plain-key `QUERY`
//! or `MQUERY` allocates nothing between the read and the reply. Every
//! other verb is parsed by the same grammar into an owned
//! [`Command`](crate::Command).

use std::sync::Arc;

use shbf_reactor::{Action, Drained};

use crate::engine::{BatchOrigin, Control, Engine, QueryScratch};
use crate::protocol::{parse_request, resolve_keys, scan_line, Key, Request, Response, Scan};
use crate::server::MAX_REQUEST_LINE;

/// One connection's protocol state: the engine it serves, the transport
/// name its traces carry, the recycled batch-query scratch, and the
/// buffers the zero-copy read path lends out for each drained input.
pub(crate) struct Session {
    engine: Arc<Engine>,
    /// Value of the `transport` attr on this session's request traces.
    transport: &'static str,
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

impl Session {
    /// A fresh session on `engine`; `transport` labels its traces.
    pub(crate) fn new(engine: Arc<Engine>, transport: &'static str) -> Session {
        Session {
            engine,
            transport,
            scratch: QueryScratch::new(),
            hex: Vec::new(),
            group_keys: Vec::new(),
            slices: Vec::new(),
        }
    }

    /// Serves every complete request line at the front of `input` (and,
    /// at `eof`, the unterminated tail), appending the replies to `out`.
    /// The unconsumed rest is at most one partial line under
    /// [`MAX_REQUEST_LINE`]; a longer one is answered with an error and
    /// [`Action::Close`].
    pub(crate) fn on_data(&mut self, input: &[u8], eof: bool, out: &mut Vec<u8>) -> Drained {
        let mut group = Group {
            ns: "",
            keys: std::mem::take(&mut self.group_keys),
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
                    self.flush_group(&mut group, out);
                    Response::Error(format!(
                        "protocol: request line exceeds {MAX_REQUEST_LINE} bytes"
                    ))
                    .encode(out);
                    break Action::Close;
                }
            };
            consumed += advance;
            let text = match std::str::from_utf8(line) {
                Ok(text) => text,
                // Non-UTF-8 bytes on a text protocol: tell the peer why
                // before closing, instead of silently dropping the link.
                Err(_) => {
                    self.flush_group(&mut group, out);
                    Response::Error("protocol: request is not valid UTF-8".into()).encode(out);
                    break Action::Close;
                }
            };
            let trimmed = text.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                continue;
            }
            let mut trace = shbf_trace::start(self.engine.trace(), "request");
            let parse_span = shbf_trace::span("parse");
            let parsed = parse_request(trimmed);
            drop(parse_span);
            let request = match parsed {
                Err(e) => {
                    self.flush_group(&mut group, out);
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
                        self.flush_group(&mut group, out);
                        group.ns = ns;
                    }
                    group.keys.push(key);
                    continue;
                }
                Ok(request) => request,
            };
            // Everything else is a batch boundary: answer the group first
            // so replies stay in request order. Admin/batch verbs are
            // always traced while sampling is on: they are rare and
            // expensive, exactly the requests worth keeping.
            let sampled = match &request {
                Request::Command(cmd) => crate::metrics::CommandKind::of(cmd).sampled(),
                _ => false,
            };
            if !trace.is_armed() && !sampled {
                trace = shbf_trace::start_forced(self.engine.trace(), "request");
            }
            if trace.is_armed() {
                trace.attr("transport", self.transport);
            }
            self.flush_group(&mut group, out);
            let dispatch_span = shbf_trace::span("dispatch");
            let (response, control) = match request {
                Request::MQuery { ns, keys } => (
                    self.answer_batch(ns, keys, BatchOrigin::MQuery),
                    Control::Continue,
                ),
                request => self
                    .engine
                    .dispatch_with(&request.into_command(), &mut self.scratch),
            };
            drop(dispatch_span);
            let encode_span = shbf_trace::span("encode");
            response.encode(out);
            drop(encode_span);
            self.scratch.reclaim(response);
            match control {
                Control::Continue => {}
                Control::CloseConnection => break Action::Close,
                Control::ShutdownServer => break Action::Shutdown,
            }
        };
        self.flush_group(&mut group, out);
        self.group_keys = shbf_concurrent::recycle(group.keys);
        Drained { consumed, action }
    }

    /// Answers a batch of keys through the engine's batch entry: plain
    /// keys are handed over as slices of the input, `0x…` keys as slices
    /// of the session's decode buffer.
    fn answer_batch<'a>(
        &mut self,
        ns: &str,
        keys: impl Iterator<Item = Key<'a>> + Clone,
        origin: BatchOrigin,
    ) -> Response {
        let mut slices: Vec<&[u8]> = std::mem::take(&mut self.slices);
        resolve_keys(keys, &mut self.hex, &mut slices);
        let response = self
            .engine
            .mquery_raw(ns, &slices, &mut self.scratch, origin);
        self.slices = shbf_concurrent::recycle(slices);
        response
    }

    /// Answers the pending query group: one engine batch ride, re-encoded
    /// as the individual `QUERY` replies (`:1`/`:0` lines, or the
    /// identical per-query error). No-op when the group is empty.
    fn flush_group(&mut self, group: &mut Group<'_>, out: &mut Vec<u8>) {
        if group.keys.is_empty() {
            return;
        }
        // The coalesced group is one logical request; when a boundary
        // command is already tracing this thread, `start` nests out and
        // the batch's spans land under that trace instead.
        let trace = shbf_trace::start(self.engine.trace(), "request");
        if trace.is_armed() {
            trace.attr("transport", self.transport);
            trace.attr("batch", group.keys.len());
        }
        let dispatch_span = shbf_trace::span("dispatch");
        let keys = group.keys.iter().copied();
        let response = self.answer_batch(group.ns, keys, BatchOrigin::QueryGroup);
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
        self.scratch.reclaim(response);
        group.keys.clear();
    }
}
