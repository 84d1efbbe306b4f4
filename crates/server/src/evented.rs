//! Evented transport: the `shbf-reactor` epoll loop driving one
//! [`Session`] per connection.
//!
//! Each readable event drains *every* byte buffered on the connection
//! (edge-triggered — the reactor re-drives leftover readiness from
//! userspace) and hands it to the connection's session, which serves
//! every complete line in one pass: framing, parsing, `QUERY` grouping,
//! dispatch and encoding all live in [`crate::session`], shared with the
//! threaded transport. Each turn's replies leave as one buffer on the
//! connection's write queue, flushed with `writev` — no coalescing copy —
//! and a connection whose queue passes
//! [`ServerConfig::write_high_water`] stops being read until the peer
//! drains half of it.
//!
//! Several reactor loops (one thread each) can share the listener; each
//! owns its accepted connections outright, so no cross-thread connection
//! state exists — the engine's registry is the only shared structure.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use shbf_reactor::{Drained, Handler, Listener, ReactorConfig, Waker};

use crate::engine::Engine;
use crate::server::ServerConfig;
use crate::session::Session;

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

/// The reactor's handler: one [`Session`] per live connection token.
struct EventedHandler {
    engine: Arc<Engine>,
    sessions: HashMap<u64, Session>,
}

impl EventedHandler {
    fn new(engine: Arc<Engine>) -> Self {
        EventedHandler {
            engine,
            sessions: HashMap::new(),
        }
    }
}

impl Handler for EventedHandler {
    fn on_data(&mut self, token: u64, input: &[u8], eof: bool, out: &mut Vec<u8>) -> Drained {
        let engine = &self.engine;
        self.sessions
            .entry(token)
            .or_insert_with(|| Session::new(Arc::clone(engine), "evented"))
            .on_data(input, eof, out)
    }

    fn on_close(&mut self, token: u64) {
        self.sessions.remove(&token);
    }
}
