//! Minimal blocking client: one command line out, one framed reply in.
//!
//! Shared by `shbf-cli client`, the loopback integration tests, and any
//! Rust caller that wants a typed handle without pulling in a Redis
//! client. Replies come back as the raw RESP lines (`+OK`, `:1`, …) with
//! array headers preserved, so callers can assert on exact frames.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use shbf_reactor::Stream;

use crate::server::Endpoint;

/// Adds up to 25% random-ish jitter to a backoff delay so a fleet of
/// retrying clients (or replicas) does not stampede the server in
/// lockstep. std-only: the entropy is the subsecond clock reading.
pub(crate) fn jittered(base: Duration) -> Duration {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0) as u64;
    let quarter = base.as_nanos() as u64 / 4;
    base + Duration::from_nanos(quarter.saturating_mul(nanos % 256) / 255)
}

/// Mutating verbs [`Client::call_with_retry`] refuses to retry: a
/// timed-out mutation may have been applied before the reply was lost,
/// and replaying it would double-apply.
const MUTATION_VERBS: &[&str] = &[
    "CREATE", "DROP", "INSERT", "DELETE", "MINSERT", "MSINSERT", "MSDELETE", "LOAD",
];

/// A blocking connection to a running `shbf-server` — TCP or UNIX-domain.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
    /// Where this connection points (TCP peers recover it from the
    /// socket), so [`Self::call_with_retry`] can reconnect after a
    /// reset/reap instead of retrying into a dead socket.
    endpoint: Option<Endpoint>,
    /// Remembered so a retry reconnection keeps the same deadline.
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connects over TCP to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Self::from_stream(Stream::Tcp(TcpStream::connect(addr)?))
    }

    /// Connects over TCP with a bound on the connect itself — a dead or
    /// black-holed server fails fast instead of waiting out the OS
    /// default (minutes). Tries each resolved address in turn.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let mut last_err = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => return Self::from_stream(Stream::Tcp(stream)),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        }))
    }

    /// Connects over a UNIX-domain socket at `path`.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> std::io::Result<Client> {
        let path = path.as_ref();
        let mut client =
            Self::from_stream(Stream::Unix(std::os::unix::net::UnixStream::connect(path)?))?;
        client.endpoint = Some(Endpoint::Unix(path.to_path_buf()));
        Ok(client)
    }

    /// Connects to wherever a [`crate::ServerHandle`] reports it listens.
    pub fn connect_endpoint(endpoint: &Endpoint) -> std::io::Result<Client> {
        Self::from_stream(endpoint.connect()?)
    }

    /// [`Self::connect_endpoint`] with a connect deadline (TCP only —
    /// UNIX-socket connects are local and do not black-hole).
    pub fn connect_endpoint_timeout(
        endpoint: &Endpoint,
        timeout: Duration,
    ) -> std::io::Result<Client> {
        match endpoint {
            Endpoint::Tcp(addr) => Self::connect_timeout(addr, timeout),
            _ => Self::connect_endpoint(endpoint),
        }
    }

    fn from_stream(stream: Stream) -> std::io::Result<Client> {
        stream.set_nodelay(true).ok();
        let endpoint = match &stream {
            Stream::Tcp(s) => s.peer_addr().ok().map(Endpoint::Tcp),
            #[cfg(unix)]
            _ => None,
        };
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            endpoint,
            read_timeout: None,
        })
    }

    /// Bounds every read on this connection (replication appliers use
    /// this so a detach never blocks on a dead primary).
    pub fn set_read_timeout(
        &mut self,
        timeout: Option<std::time::Duration>,
    ) -> std::io::Result<()> {
        self.read_timeout = timeout;
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Replaces this client's socket with a fresh connection to the same
    /// endpoint, keeping the configured read deadline.
    fn reconnect(&mut self) -> std::io::Result<()> {
        let endpoint = self
            .endpoint
            .clone()
            .ok_or_else(|| std::io::Error::other("no known endpoint to reconnect to"))?;
        let fresh = Client::connect_endpoint(&endpoint)?;
        self.reader = fresh.reader;
        self.writer = fresh.writer;
        let timeout = self.read_timeout;
        self.reader.get_ref().set_read_timeout(timeout)
    }

    fn read_frame_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Sends one command line, returns all reply lines (1 for scalars,
    /// 1 + n for an `*n` array; arrays nest for future-proofing). A
    /// `$<len>` bulk frame contributes only its header line here — use
    /// [`Self::send_with_bulks`] when the payload bytes matter.
    pub fn send(&mut self, command: &str) -> std::io::Result<Vec<String>> {
        Ok(self.send_with_bulks(command)?.0)
    }

    /// Sends one command line and returns `(reply lines, bulk payloads)`:
    /// the framing lines as [`Self::send`] reports them, plus the raw
    /// bytes of every `$`-framed bulk string in frame order (the
    /// replication `SYNC` full-sync path ships snapshot blobs this way).
    pub fn send_with_bulks(
        &mut self,
        command: &str,
    ) -> std::io::Result<(Vec<String>, Vec<Vec<u8>>)> {
        self.writer.write_all(command.as_bytes())?;
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()?;
        let mut lines = Vec::with_capacity(1);
        let mut bulks = Vec::new();
        self.read_reply(&mut lines, &mut bulks)?;
        Ok((lines, bulks))
    }

    fn read_reply(
        &mut self,
        lines: &mut Vec<String>,
        bulks: &mut Vec<Vec<u8>>,
    ) -> std::io::Result<()> {
        let head = self.read_frame_line()?;
        let nested = head.strip_prefix('*').and_then(|n| n.parse::<usize>().ok());
        let bulk_len = head.strip_prefix('$').and_then(|n| n.parse::<usize>().ok());
        lines.push(head);
        if let Some(n) = nested {
            for _ in 0..n {
                self.read_reply(lines, bulks)?;
            }
        } else if let Some(len) = bulk_len {
            // `$<len>\r\n<len raw bytes>\r\n` — the payload may be binary,
            // so it is consumed exactly, never line-framed.
            let mut payload = vec![0u8; len];
            self.reader.read_exact(&mut payload)?;
            let mut crlf = [0u8; 2];
            self.reader.read_exact(&mut crlf)?;
            bulks.push(payload);
        }
        Ok(())
    }

    /// Pipelines a batch: writes **all** commands (one `write` + `flush`
    /// for the whole batch), then reads one framed reply per command, in
    /// order. Against the evented transport this is what makes the
    /// server-side batch path engage — the adjacent `QUERY` lines arrive
    /// in one readable event and ride the sharded batch pipeline.
    pub fn send_pipelined<S: AsRef<str>>(
        &mut self,
        commands: &[S],
    ) -> std::io::Result<Vec<Vec<String>>> {
        let mut batch = Vec::new();
        for command in commands {
            batch.extend_from_slice(command.as_ref().as_bytes());
            batch.extend_from_slice(b"\r\n");
        }
        self.writer.write_all(&batch)?;
        self.writer.flush()?;
        let mut replies = Vec::with_capacity(commands.len());
        let mut bulks = Vec::new();
        for _ in commands {
            let mut lines = Vec::with_capacity(1);
            self.read_reply(&mut lines, &mut bulks)?;
            replies.push(lines);
        }
        Ok(replies)
    }

    /// Sends an **idempotent read** with bounded retries: on an I/O
    /// failure (timeout, reset, shed connection) the command is resent up
    /// to `retries` more times, sleeping a jittered, doubling backoff
    /// (starting at `backoff`) between attempts on the same connection.
    ///
    /// Mutating verbs are refused with `InvalidInput` rather than
    /// retried: a lost reply does not mean a lost write, and replaying
    /// `INSERT`-family commands would double-apply them. Protocol-level
    /// errors (`-ERR …`) come back as successful replies and are never
    /// retried either — only transport failures are.
    pub fn call_with_retry(
        &mut self,
        command: &str,
        retries: u32,
        backoff: Duration,
    ) -> std::io::Result<Vec<String>> {
        let verb = command
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_uppercase();
        if MUTATION_VERBS.contains(&verb.as_str()) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("refusing to retry non-idempotent verb {verb}"),
            ));
        }
        let mut delay = backoff;
        let mut attempt = 0;
        loop {
            match self.send(command) {
                Ok(lines) => return Ok(lines),
                Err(e) => {
                    if attempt >= retries {
                        return Err(e);
                    }
                    attempt += 1;
                    std::thread::sleep(jittered(delay));
                    delay = delay.saturating_mul(2);
                    // Best effort — a failed reconnect leaves the old
                    // socket in place, and the next send's error decides.
                    let _ = self.reconnect();
                }
            }
        }
    }

    /// Sends a command and asserts a single-line reply, returning it.
    pub fn send_expect_one(&mut self, command: &str) -> std::io::Result<String> {
        let mut lines = self.send(command)?;
        if lines.len() != 1 {
            return Err(std::io::Error::other(format!(
                "expected one reply line, got {lines:?}"
            )));
        }
        Ok(lines.pop().unwrap())
    }
}
