//! Wire protocol: a RESP-like, line-oriented request/reply codec.
//!
//! Requests are single lines of whitespace-separated tokens terminated by
//! `\n` (a trailing `\r` is stripped, so both LF and CRLF clients work).
//! The first token is the case-insensitive command verb. Keys are opaque
//! tokens; a token of the form `0x<hex>` denotes raw bytes, anything else
//! is taken as its UTF-8 bytes. See the crate docs for the full grammar.
//!
//! The grammar lives in one function, behind both [`parse_request`] and
//! [`parse_command`]. It splits the line in one pass without collecting
//! the tokens and upper-cases the verb on the stack. The read verbs
//! `QUERY` and `MQUERY` come back as a borrowed [`Request`]: the
//! namespace is a slice of the line and each key a validated [`Key`], so
//! parsing them allocates nothing. The evented
//! transport answers them from the borrowed form; [`resolve_keys`] turns
//! the keys into byte slices, decoding `0x…` keys into a caller-owned
//! buffer. [`parse_command`], for the callers that keep commands (the
//! threaded transport, WAL replay, replication and tests), is
//! [`parse_request`] followed by [`Request::into_command`], so grammar and
//! error text cannot drift between the two. An owned `QUERY` costs
//! exactly two allocations, the namespace and the key.
//!
//! Replies use RESP framing so any Redis-style client can parse them:
//!
//! * `+<text>\r\n` — simple string (`+OK`, `+PONG`, `+INTERSECTION`, …)
//! * `-ERR <msg>\r\n` — error
//! * `:<n>\r\n` — integer (`:1`/`:0` for membership, counts for `COUNT`)
//! * `*<n>\r\n` followed by `n` nested replies — arrays (`MQUERY`, `STATS`)

use std::fmt;
use std::str::SplitAsciiWhitespace;

/// Which of the two sets an association update targets (wire form `1`/`2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireSet {
    /// Set S1 (the default when omitted).
    S1,
    /// Set S2.
    S2,
}

/// `SLOWLOG` subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowLogSub {
    /// `SLOWLOG GET [n]` → array of `+<id> <unix_ts> <duration_us>
    /// <summary>` lines, newest first (`n` defaults to 10).
    Get {
        /// Maximum entries to return.
        n: usize,
    },
    /// `SLOWLOG RESET` → `+OK` — clears the ring.
    Reset,
    /// `SLOWLOG LEN` → `:n` — retained entry count.
    Len,
}

/// `TRACE` subcommands (the request-tracing analog of [`SlowLogSub`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSub {
    /// `TRACE GET [n]` → array of `+<trace_id> <unix_ts> <duration_us>
    /// <spans> <root>` lines, newest first (`n` defaults to 10). The
    /// full span trees are exported as Chrome trace-event JSON by the
    /// metrics endpoint's `GET /trace`.
    Get {
        /// Maximum traces to return.
        n: usize,
    },
    /// `TRACE RESET` → `+OK` — clears both trace rings.
    Reset,
    /// `TRACE LEN` → `:n` — retained trace count.
    Len,
}

/// `FAILPOINT` subcommands (test-only fault injection; the verb is
/// rejected unless the server was started with failpoint administration
/// enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailPointSub {
    /// `FAILPOINT SET site action` → `+OK` — arms `site` with an
    /// `shbf-failpoint` action (`off|return(msg)|delay(ms)|panic|1in(n)`).
    Set {
        /// The failpoint site name (e.g. `wal::fsync`).
        site: String,
        /// The action string, parsed by `shbf_failpoint::Action::parse`.
        action: String,
    },
    /// `FAILPOINT CLEAR [site]` → `+OK` — disarms one site, or every
    /// site when none is named.
    Clear {
        /// `Some(site)` to disarm one, `None` to disarm all.
        site: Option<String>,
    },
    /// `FAILPOINT LIST` → array of `+site=action hits=h fired=f` lines,
    /// name-sorted.
    List,
}

/// The filter family a namespace is created with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KindSpec {
    /// `shbf-m` — sharded counting membership filter (insert/delete/query).
    Membership,
    /// `shbf-x` — counting multiplicity filter (insert bumps a count).
    Multiplicity,
    /// `shbf-a` — counting association filter over two sets.
    Association,
    /// `multiset` — counting multi-set filter mapping keys to one of `N`
    /// set ids in a single filter (`MSINSERT`/`MSDELETE`/`MSQUERY`).
    MultiSet,
}

impl KindSpec {
    /// Wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            KindSpec::Membership => "shbf-m",
            KindSpec::Multiplicity => "shbf-x",
            KindSpec::Association => "shbf-a",
            KindSpec::MultiSet => "multiset",
        }
    }
}

impl fmt::Display for KindSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The hash-family construction a namespace is created with (wire form
/// `family=seeded` / `family=one-shot`, trailing token of `CREATE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilySpec {
    /// Paper-faithful seeded family: one full hash pass per position.
    Seeded,
    /// Digest-once family: one Murmur3 x64-128 pass per key.
    OneShot,
}

impl FamilySpec {
    /// Wire name of the family.
    pub fn name(self) -> &'static str {
        match self {
            FamilySpec::Seeded => "seeded",
            FamilySpec::OneShot => "one-shot",
        }
    }
}

impl fmt::Display for FamilySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `PING` → `+PONG`.
    Ping,
    /// `CREATE ns kind m k [extra] [seed] [family=seeded|one-shot]` —
    /// `extra` is shard count for `shbf-m`, max count `c` for `shbf-x`,
    /// absent for `shbf-a`.
    Create {
        /// Namespace name.
        ns: String,
        /// Filter family.
        kind: KindSpec,
        /// Logical bits.
        m: usize,
        /// Hash positions.
        k: usize,
        /// Kind-specific extra parameter (shards / max count), if given.
        extra: Option<usize>,
        /// Hash seed, if given.
        seed: Option<u64>,
        /// Hash-family construction, if given (`None` → seeded default).
        family: Option<FamilySpec>,
    },
    /// `INSERT ns key [1|2]` — set id only meaningful for `shbf-a`.
    Insert {
        /// Namespace name.
        ns: String,
        /// Element key.
        key: Vec<u8>,
        /// Target set for association namespaces.
        set: WireSet,
    },
    /// `DELETE ns key [1|2]`.
    Delete {
        /// Namespace name.
        ns: String,
        /// Element key.
        key: Vec<u8>,
        /// Target set for association namespaces.
        set: WireSet,
    },
    /// `QUERY ns key` → `:1` / `:0`.
    Query {
        /// Namespace name.
        ns: String,
        /// Element key.
        key: Vec<u8>,
    },
    /// `MQUERY ns key...` → array of `:1`/`:0`, batched per shard.
    MQuery {
        /// Namespace name.
        ns: String,
        /// Element keys, answered in order.
        keys: Vec<Vec<u8>>,
    },
    /// `MINSERT ns key...` → `:n` inserted — the bulk-load path (`shbf-m`
    /// namespaces only; one write lock per touched shard).
    MInsert {
        /// Namespace name.
        ns: String,
        /// Element keys, inserted as one shard-grouped batch.
        keys: Vec<Vec<u8>>,
    },
    /// `COUNT ns key` → `:multiplicity` (shbf-x namespaces).
    Count {
        /// Namespace name.
        ns: String,
        /// Element key.
        key: Vec<u8>,
    },
    /// `ASSOC ns key` → `+ONLY_S1` etc. (shbf-a namespaces).
    Assoc {
        /// Namespace name.
        ns: String,
        /// Element key.
        key: Vec<u8>,
    },
    /// `MSINSERT ns key set-id` → `+OK` — adds the key to one of a
    /// multiset namespace's sets (idempotent).
    MsInsert {
        /// Namespace name.
        ns: String,
        /// Element key.
        key: Vec<u8>,
        /// Target set id, `0..sets`.
        set: usize,
    },
    /// `MSDELETE ns key set-id` → `+OK` — removes the key from one set
    /// (`-ERR` when the pair was never inserted).
    MsDelete {
        /// Namespace name.
        ns: String,
        /// Element key.
        key: Vec<u8>,
        /// Target set id, `0..sets`.
        set: usize,
    },
    /// `MSQUERY ns key` → array of `:set-id` integers, ascending — the
    /// candidate sets the key may belong to (no false negatives).
    MsQuery {
        /// Namespace name.
        ns: String,
        /// Element key.
        key: Vec<u8>,
    },
    /// `WHICH key` → array of `+name` lines, name-sorted — every
    /// namespace whose set (possibly) contains the key, answered via the
    /// cross-namespace summary tree.
    Which {
        /// Element key.
        key: Vec<u8>,
    },
    /// `MWHICH key...` → array of `n` nested arrays, one per key in
    /// order, each the `WHICH` answer for that key.
    MWhich {
        /// Element keys, answered in order.
        keys: Vec<Vec<u8>>,
    },
    /// `STATS ns` → array of `+field=value` lines.
    Stats {
        /// Namespace name.
        ns: String,
    },
    /// `NAMESPACES` → array of `+name kind` lines.
    Namespaces,
    /// `DROP ns` → `+OK`.
    Drop {
        /// Namespace name.
        ns: String,
    },
    /// `SNAPSHOT path` — persist every namespace to one file.
    Snapshot {
        /// Destination file path.
        path: String,
    },
    /// `LOAD path` — replace all namespaces from a snapshot file.
    Load {
        /// Source file path.
        path: String,
    },
    /// `REPLICAOF host:port` / `REPLICAOF NO ONE` — attach to (or detach
    /// from) a primary as a read replica.
    ReplicaOf {
        /// `Some(primary)` to attach, `None` (`NO ONE`) to detach.
        target: Option<String>,
    },
    /// `SYNC have_seq` — replication handshake (sent by a replica):
    /// `+TAIL <last_seq>` when the log still covers `have_seq`, otherwise
    /// a 2-element array of `+FULL <seq>` and a `$`-framed snapshot blob.
    Sync {
        /// Highest sequence number the replica has applied.
        have: u64,
    },
    /// `PULLOPS id from max` — replication tailing (sent by a replica):
    /// an array of `+UPTO <last_seq>` followed by up to `max` ops as
    /// `+<seq> <command line>` entries. `from` doubles as the replica's
    /// applied-position acknowledgement.
    PullOps {
        /// Replica identity (for `STATS replication` bookkeeping).
        id: String,
        /// Return ops with sequence numbers strictly greater than this.
        from: u64,
        /// Maximum number of ops to return.
        max: u64,
    },
    /// `SLOWLOG GET [n]` / `SLOWLOG RESET` / `SLOWLOG LEN` — inspect or
    /// clear the in-memory ring of slowest commands.
    SlowLog {
        /// The subcommand.
        sub: SlowLogSub,
    },
    /// `TRACE GET [n]` / `TRACE RESET` / `TRACE LEN` — inspect or clear
    /// the ring of recorded request span trees.
    Trace {
        /// The subcommand.
        sub: TraceSub,
    },
    /// `FAILPOINT SET site action` / `CLEAR [site]` / `LIST` — runtime
    /// fault injection for chaos tests. Gated behind
    /// [`crate::ServerConfig::failpoints_admin`]; disabled servers
    /// reply `-ERR failpoint admin disabled`.
    FailPoint {
        /// The subcommand.
        sub: FailPointSub,
    },
    /// `SHUTDOWN` — stop the server after replying `+BYE`.
    Shutdown,
    /// `QUIT` — close this connection after replying `+BYE`.
    Quit,
}

/// One step of incremental line framing over buffered bytes — the shared
/// scanner behind the protocol session's pipelined parsing.
///
/// Framing is a pure function of `(buffered bytes, eof)`, so any
/// chunking of a request stream yields the same sequence of events as
/// single-shot scanning (the `protocol_parser_proptest` suite replays
/// arbitrary chunkings to prove it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan<'a> {
    /// A complete request line (terminator stripped is the caller's job —
    /// `line` excludes the `\n`, but may end in `\r`): consume `advance`
    /// bytes and process `line`.
    Line {
        /// The line's bytes, without the trailing `\n`.
        line: &'a [u8],
        /// Bytes of input this line accounts for (including the `\n`, or
        /// the bare tail length at EOF).
        advance: usize,
    },
    /// No complete line yet and the buffer is under the cap: wait for
    /// more input.
    Incomplete,
    /// The (possibly unterminated) line exceeds `max_line`: reject and
    /// close.
    Oversize,
}

/// Scans the front of `buf` for the next request line. `eof` means no
/// more input will ever arrive, so an unterminated trailing line is
/// served as-is (the way a blocking `read_line` loop would). The oversize
/// check counts the newline byte for terminated lines, so a line of
/// `max_line` bytes including its `\n` is the longest accepted.
pub fn scan_line(buf: &[u8], eof: bool, max_line: usize) -> Scan<'_> {
    match buf.iter().position(|&b| b == b'\n') {
        Some(i) if i + 1 > max_line => Scan::Oversize,
        Some(i) => Scan::Line {
            line: &buf[..i],
            advance: i + 1,
        },
        None if buf.len() > max_line => Scan::Oversize,
        None if eof => Scan::Line {
            line: buf,
            advance: buf.len(),
        },
        None => Scan::Incomplete,
    }
}

/// A parse failure, reported to the client as `-ERR ...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// A key token the parser has validated, borrowed from the request line:
/// a `0x<hex>` token denotes the bytes its digits spell, any other token
/// its UTF-8 bytes. Only [`Key::parse`] builds one, so a key's hex digits
/// are always valid:
///
/// ```
/// use shbf_server::Key;
/// assert!(Key::parse("0x+a").is_err());
/// assert_eq!(Key::parse("0x0A").unwrap().to_vec(), [0x0a]);
/// ```
///
/// The representation is private, so a key cannot be built around it:
///
/// ```compile_fail
/// let key = shbf_server::Key(Default::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key<'a>(KeyRepr<'a>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyRepr<'a> {
    /// Any token not starting with `0x`, taken as its UTF-8 bytes.
    Plain(&'a [u8]),
    /// The digits of a `0x<hex>` token: nonzero, even length, ASCII hex.
    Hex(&'a str),
}

impl<'a> Key<'a> {
    /// Validates a key token: `0x<hex>` → raw bytes, otherwise UTF-8 bytes.
    pub fn parse(token: &'a str) -> Result<Key<'a>, ParseError> {
        match token.strip_prefix("0x") {
            None => Ok(Key(KeyRepr::Plain(token.as_bytes()))),
            Some(hex) if hex.is_empty() || hex.len() % 2 != 0 => {
                Err(err("hex key must have even, nonzero length"))
            }
            Some(hex) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => Ok(Key(KeyRepr::Hex(hex))),
            Some(_) => Err(err(format!("invalid hex key `{token}`"))),
        }
    }

    /// Classifies a token [`Key::parse`] has already accepted.
    fn validated(token: &'a str) -> Key<'a> {
        Key(token
            .strip_prefix("0x")
            .map_or(KeyRepr::Plain(token.as_bytes()), KeyRepr::Hex))
    }

    /// Whether the key was written as `0x<hex>`.
    fn is_hex(self) -> bool {
        matches!(self.0, KeyRepr::Hex(_))
    }

    /// Length of the key in bytes.
    fn len(self) -> usize {
        match self.0 {
            KeyRepr::Plain(bytes) => bytes.len(),
            KeyRepr::Hex(digits) => digits.len() / 2,
        }
    }

    /// Appends the key's bytes to `out`.
    fn decode_into(self, out: &mut Vec<u8>) {
        fn nibble(b: u8) -> u8 {
            match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                _ => b - b'A' + 10,
            }
        }
        match self.0 {
            KeyRepr::Plain(bytes) => out.extend_from_slice(bytes),
            KeyRepr::Hex(digits) => out.extend(
                digits
                    .as_bytes()
                    .chunks_exact(2)
                    .map(|pair| (nibble(pair[0]) << 4) | nibble(pair[1])),
            ),
        }
    }

    /// The key's bytes, owned.
    pub fn to_vec(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        self.decode_into(&mut out);
        out
    }
}

/// The validated keys of a multi-key request, borrowed from the request
/// line and yielded in order.
#[derive(Debug, Clone)]
pub struct Keys<'a> {
    tokens: SplitAsciiWhitespace<'a>,
    len: usize,
}

impl<'a> Iterator for Keys<'a> {
    type Item = Key<'a>;

    fn next(&mut self) -> Option<Key<'a>> {
        let token = self.tokens.next()?;
        self.len -= 1;
        Some(Key::validated(token))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl ExactSizeIterator for Keys<'_> {}

/// Resolves validated keys to byte slices without allocating per key:
/// plain keys borrow the request line, and `0x…` keys are decoded into
/// `hex` (cleared first) and borrow from it. `out` is cleared first and
/// receives one slice per key, in order. The keys are walked once, and a
/// second time only when some are `0x…` keys.
pub fn resolve_keys<'k, 'a: 'k, I>(keys: I, hex: &'k mut Vec<u8>, out: &mut Vec<&'k [u8]>)
where
    I: Iterator<Item = Key<'a>> + Clone,
{
    hex.clear();
    out.clear();
    for key in keys.clone() {
        match key.0 {
            KeyRepr::Plain(bytes) => out.push(bytes),
            // A placeholder until `hex` stops growing.
            KeyRepr::Hex(_) => {
                key.decode_into(hex);
                out.push(&[]);
            }
        }
    }
    if hex.is_empty() {
        return;
    }
    let mut decoded: &'k [u8] = hex;
    for (slot, key) in out.iter_mut().zip(keys) {
        if key.is_hex() {
            let (head, tail) = decoded.split_at(key.len());
            *slot = head;
            decoded = tail;
        }
    }
}

/// A parsed request line. `QUERY` and `MQUERY`, the read path, borrow their
/// namespace and keys from the line; every other verb is parsed into its
/// owned [`Command`].
#[derive(Debug, Clone)]
pub enum Request<'a> {
    /// `QUERY ns key`.
    Query {
        /// Namespace name.
        ns: &'a str,
        /// Element key.
        key: Key<'a>,
    },
    /// `MQUERY ns key...`.
    MQuery {
        /// Namespace name.
        ns: &'a str,
        /// Element keys, answered in order.
        keys: Keys<'a>,
    },
    /// Any other verb.
    Command(Command),
}

impl Request<'_> {
    /// The owned [`Command`] this request denotes.
    pub fn into_command(self) -> Command {
        match self {
            Request::Query { ns, key } => Command::Query {
                ns: ns.to_owned(),
                key: key.to_vec(),
            },
            Request::MQuery { ns, keys } => Command::MQuery {
                ns: ns.to_owned(),
                keys: keys.map(Key::to_vec).collect(),
            },
            Request::Command(cmd) => cmd,
        }
    }
}

/// Decodes a key token: `0x<hex>` → raw bytes, otherwise UTF-8 bytes.
pub fn decode_key(token: &str) -> Result<Vec<u8>, ParseError> {
    Key::parse(token).map(Key::to_vec)
}

/// Encodes a key for display: printable ASCII as-is, otherwise `0x<hex>`.
pub fn encode_key(key: &[u8]) -> String {
    let printable = !key.is_empty() && key.iter().all(|&b| b.is_ascii_graphic() && b != b'"');
    if printable && !key.starts_with(b"0x") {
        String::from_utf8(key.to_vec()).unwrap()
    } else {
        let mut s = String::with_capacity(2 + key.len() * 2);
        s.push_str("0x");
        for b in key {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

fn parse_set(token: Option<&str>) -> Result<WireSet, ParseError> {
    match token {
        None | Some("1") => Ok(WireSet::S1),
        Some("2") => Ok(WireSet::S2),
        Some(other) => Err(err(format!("set must be 1 or 2, got `{other}`"))),
    }
}

fn parse_num<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, ParseError> {
    token
        .parse()
        .map_err(|_| err(format!("{what}: cannot parse `{token}`")))
}

fn valid_ns(ns: &str) -> Result<&str, ParseError> {
    if ns.is_empty() || ns.len() > 128 {
        return Err(err("namespace must be 1..=128 chars"));
    }
    if !ns
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':'))
    {
        return Err(err(format!(
            "namespace `{ns}` may only contain [A-Za-z0-9._:-]"
        )));
    }
    Ok(ns)
}

fn check_ns(ns: &str) -> Result<String, ParseError> {
    valid_ns(ns).map(str::to_owned)
}

/// How many argument tokens [`Args`] holds; every fixed arity fits.
const ARGS_INLINE: usize = 8;

/// The tokens after the verb of a fixed-arity verb, split in one pass
/// without collecting them: the first [`ARGS_INLINE`] are held, and any
/// later ones are re-split from the start of the arguments.
#[derive(Clone)]
struct Args<'a> {
    head: [&'a str; ARGS_INLINE],
    tokens: SplitAsciiWhitespace<'a>,
    len: usize,
}

impl<'a> Args<'a> {
    fn new(tokens: SplitAsciiWhitespace<'a>) -> Self {
        let mut head = [""; ARGS_INLINE];
        let mut len = 0;
        for token in tokens.clone() {
            if let Some(slot) = head.get_mut(len) {
                *slot = token;
            }
            len += 1;
        }
        Args { head, tokens, len }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> Option<&'a str> {
        if i >= self.len {
            return None;
        }
        match self.head.get(i) {
            Some(&token) => Some(token),
            None => self.from(i).next(),
        }
    }

    /// Token `i`, which the caller has checked against the arity.
    fn at(&self, i: usize) -> &'a str {
        self.get(i)
            .expect("argument index checked against the arity")
    }

    fn last(&self) -> Option<&'a str> {
        self.get(self.len.checked_sub(1)?)
    }

    /// Drops the last token.
    fn pop(&mut self) {
        self.len -= 1;
    }

    /// The tokens from index `i` on.
    fn from(&self, i: usize) -> SplitAsciiWhitespace<'a> {
        let mut tokens = self.tokens.clone();
        for _ in 0..i {
            tokens.next();
        }
        tokens
    }
}

/// `MQUERY`/`MINSERT ns key...` and `MWHICH key...`. `MQUERY` keys are
/// validated in place and stay borrowed; the others are decoded into
/// owned keys in the pass that validates them. Errors come in the
/// grammar's order: arity, then the namespace, then the first bad key.
fn parse_multi_key<'a>(
    verb: &str,
    upper: &[u8],
    mut tokens: SplitAsciiWhitespace<'a>,
) -> Result<Request<'a>, ParseError> {
    if upper == b"MWHICH" {
        if tokens.clone().next().is_none() {
            return Err(err("usage: MWHICH key [key...]"));
        }
        let keys = tokens.map(decode_key).collect::<Result<_, _>>()?;
        return Ok(Request::Command(Command::MWhich { keys }));
    }
    let ns = match tokens.next() {
        Some(ns) if tokens.clone().next().is_some() => valid_ns(ns)?,
        _ => return Err(err(format!("usage: {verb} ns key [key...]"))),
    };
    if upper == b"MQUERY" {
        let mut len = 0;
        for token in tokens.clone() {
            Key::parse(token)?;
            len += 1;
        }
        return Ok(Request::MQuery {
            ns,
            keys: Keys { tokens, len },
        });
    }
    let keys = tokens.map(decode_key).collect::<Result<_, _>>()?;
    Ok(Request::Command(Command::MInsert {
        ns: ns.to_owned(),
        keys,
    }))
}

/// No verb is longer than this; a longer first token is an unknown command.
const VERB_MAX: usize = 16;

/// Upper-cases `verb` into `buf` (empty when it does not fit).
fn upper_verb<'b>(verb: &str, buf: &'b mut [u8; VERB_MAX]) -> &'b [u8] {
    let Some(upper) = buf.get_mut(..verb.len()) else {
        return &[];
    };
    for (dst, src) in upper.iter_mut().zip(verb.bytes()) {
        *dst = src.to_ascii_uppercase();
    }
    upper
}

/// Parses one request line into a [`Command`]: [`parse_request`], with
/// a borrowed `QUERY`/`MQUERY` copied out.
pub fn parse_command(line: &str) -> Result<Command, ParseError> {
    parse_request(line).map(Request::into_command)
}

/// Parses one request line. This is the whole grammar; `QUERY` and
/// `MQUERY` come back borrowed from `line` with every key validated, so
/// the read path allocates nothing to parse them.
pub fn parse_request(line: &str) -> Result<Request<'_>, ParseError> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or_else(|| err("empty command"))?;
    let mut upper = [0u8; VERB_MAX];
    let upper = upper_verb(verb, &mut upper);
    if let b"MQUERY" | b"MINSERT" | b"MWHICH" = upper {
        return parse_multi_key(verb, upper, tokens);
    }
    let rest = Args::new(tokens);

    let arity = |n: usize, usage: &str| -> Result<(), ParseError> {
        if rest.len() == n {
            Ok(())
        } else {
            Err(err(format!("usage: {usage}")))
        }
    };

    let command = match upper {
        b"QUERY" => {
            arity(2, "QUERY ns key")?;
            return Ok(Request::Query {
                ns: valid_ns(rest.at(0))?,
                key: Key::parse(rest.at(1))?,
            });
        }
        b"PING" => Command::Ping,
        b"CREATE" => {
            let mut rest = rest.clone();
            // The optional `family=` selector is the trailing token so the
            // positional grammar stays untouched for existing clients.
            let family = match rest.last().and_then(|t| t.strip_prefix("family=")) {
                Some(spec) => {
                    rest.pop();
                    Some(match spec {
                        "seeded" => FamilySpec::Seeded,
                        "one-shot" | "oneshot" => FamilySpec::OneShot,
                        other => {
                            return Err(err(format!(
                                "unknown family `{other}` (seeded | one-shot)"
                            )))
                        }
                    })
                }
                None => None,
            };
            if !(4..=6).contains(&rest.len()) {
                return Err(err(
                    "usage: CREATE ns shbf-m|shbf-x|shbf-a|multiset m k [extra] [seed] [family=seeded|one-shot]",
                ));
            }
            let ns = check_ns(rest.at(0))?;
            let kind = match rest.at(1) {
                "shbf-m" => KindSpec::Membership,
                "shbf-x" => KindSpec::Multiplicity,
                "shbf-a" => KindSpec::Association,
                "multiset" => KindSpec::MultiSet,
                other => {
                    return Err(err(format!(
                        "unknown kind `{other}` (shbf-m | shbf-x | shbf-a | multiset)"
                    )))
                }
            };
            let m = parse_num(rest.at(2), "m")?;
            let k = parse_num(rest.at(3), "k")?;
            let extra = rest.get(4).map(|t| parse_num(t, "extra")).transpose()?;
            let seed = rest.get(5).map(|t| parse_num(t, "seed")).transpose()?;
            Command::Create {
                ns,
                kind,
                m,
                k,
                extra,
                seed,
                family,
            }
        }
        b"INSERT" | b"DELETE" => {
            if !(2..=3).contains(&rest.len()) {
                return Err(err(format!("usage: {verb} ns key [1|2]")));
            }
            let ns = check_ns(rest.at(0))?;
            let key = decode_key(rest.at(1))?;
            let set = parse_set(rest.get(2))?;
            if verb.eq_ignore_ascii_case("INSERT") {
                Command::Insert { ns, key, set }
            } else {
                Command::Delete { ns, key, set }
            }
        }
        b"COUNT" => {
            arity(2, "COUNT ns key")?;
            Command::Count {
                ns: check_ns(rest.at(0))?,
                key: decode_key(rest.at(1))?,
            }
        }
        b"ASSOC" => {
            arity(2, "ASSOC ns key")?;
            Command::Assoc {
                ns: check_ns(rest.at(0))?,
                key: decode_key(rest.at(1))?,
            }
        }
        b"MSINSERT" | b"MSDELETE" => {
            if rest.len() != 3 {
                return Err(err(format!("usage: {verb} ns key set-id")));
            }
            let ns = check_ns(rest.at(0))?;
            let key = decode_key(rest.at(1))?;
            let set = parse_num(rest.at(2), "set-id")?;
            if verb.eq_ignore_ascii_case("MSINSERT") {
                Command::MsInsert { ns, key, set }
            } else {
                Command::MsDelete { ns, key, set }
            }
        }
        b"MSQUERY" => {
            arity(2, "MSQUERY ns key")?;
            Command::MsQuery {
                ns: check_ns(rest.at(0))?,
                key: decode_key(rest.at(1))?,
            }
        }
        b"WHICH" => {
            arity(1, "WHICH key")?;
            Command::Which {
                key: decode_key(rest.at(0))?,
            }
        }
        b"STATS" => {
            arity(1, "STATS ns")?;
            Command::Stats {
                ns: check_ns(rest.at(0))?,
            }
        }
        b"NAMESPACES" => {
            arity(0, "NAMESPACES")?;
            Command::Namespaces
        }
        b"DROP" => {
            arity(1, "DROP ns")?;
            Command::Drop {
                ns: check_ns(rest.at(0))?,
            }
        }
        b"SNAPSHOT" => {
            arity(1, "SNAPSHOT path")?;
            Command::Snapshot {
                path: rest.at(0).to_string(),
            }
        }
        b"LOAD" => {
            arity(1, "LOAD path")?;
            Command::Load {
                path: rest.at(0).to_string(),
            }
        }
        b"REPLICAOF" => {
            // `REPLICAOF NO ONE` detaches (Redis idiom); anything else is
            // a single `host:port` target.
            if rest.len() == 2
                && rest.at(0).eq_ignore_ascii_case("no")
                && rest.at(1).eq_ignore_ascii_case("one")
            {
                return Ok(Request::Command(Command::ReplicaOf { target: None }));
            }
            arity(1, "REPLICAOF host:port | REPLICAOF NO ONE")?;
            Command::ReplicaOf {
                target: Some(rest.at(0).to_string()),
            }
        }
        b"SYNC" => {
            arity(1, "SYNC have_seq")?;
            Command::Sync {
                have: parse_num(rest.at(0), "have_seq")?,
            }
        }
        b"PULLOPS" => {
            arity(3, "PULLOPS id from max")?;
            Command::PullOps {
                id: rest.at(0).to_string(),
                from: parse_num(rest.at(1), "from")?,
                max: parse_num(rest.at(2), "max")?,
            }
        }
        b"SLOWLOG" => {
            let usage = "SLOWLOG GET [n] | SLOWLOG RESET | SLOWLOG LEN";
            let sub = rest.get(0).ok_or_else(|| err(format!("usage: {usage}")))?;
            match sub.to_ascii_uppercase().as_str() {
                "GET" if rest.len() <= 2 => {
                    let n = rest.get(1).map(|t| parse_num(t, "n")).transpose()?;
                    Command::SlowLog {
                        sub: SlowLogSub::Get { n: n.unwrap_or(10) },
                    }
                }
                "RESET" if rest.len() == 1 => Command::SlowLog {
                    sub: SlowLogSub::Reset,
                },
                "LEN" if rest.len() == 1 => Command::SlowLog {
                    sub: SlowLogSub::Len,
                },
                _ => return Err(err(format!("usage: {usage}"))),
            }
        }
        b"TRACE" => {
            let usage = "TRACE GET [n] | TRACE RESET | TRACE LEN";
            let sub = rest.get(0).ok_or_else(|| err(format!("usage: {usage}")))?;
            match sub.to_ascii_uppercase().as_str() {
                "GET" if rest.len() <= 2 => {
                    let n = rest.get(1).map(|t| parse_num(t, "n")).transpose()?;
                    Command::Trace {
                        sub: TraceSub::Get { n: n.unwrap_or(10) },
                    }
                }
                "RESET" if rest.len() == 1 => Command::Trace {
                    sub: TraceSub::Reset,
                },
                "LEN" if rest.len() == 1 => Command::Trace { sub: TraceSub::Len },
                _ => return Err(err(format!("usage: {usage}"))),
            }
        }
        b"FAILPOINT" => {
            let usage = "FAILPOINT SET site action | FAILPOINT CLEAR [site] | FAILPOINT LIST";
            let sub = rest.get(0).ok_or_else(|| err(format!("usage: {usage}")))?;
            match sub.to_ascii_uppercase().as_str() {
                // The action may contain spaces (`return(disk full)`),
                // so everything after the site name is one action token.
                "SET" if rest.len() >= 3 => Command::FailPoint {
                    sub: FailPointSub::Set {
                        site: rest.at(1).to_string(),
                        action: rest.from(2).collect::<Vec<_>>().join(" "),
                    },
                },
                "CLEAR" if rest.len() <= 2 => Command::FailPoint {
                    sub: FailPointSub::Clear {
                        site: rest.get(1).map(str::to_owned),
                    },
                },
                "LIST" if rest.len() == 1 => Command::FailPoint {
                    sub: FailPointSub::List,
                },
                _ => return Err(err(format!("usage: {usage}"))),
            }
        }
        b"SHUTDOWN" => {
            arity(0, "SHUTDOWN")?;
            Command::Shutdown
        }
        b"QUIT" => {
            arity(0, "QUIT")?;
            Command::Quit
        }
        _ => {
            return Err(err(format!(
                "unknown command `{}`",
                verb.to_ascii_uppercase()
            )))
        }
    };
    Ok(Request::Command(command))
}

/// A reply, encodable in RESP framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `+<text>` simple string.
    Simple(String),
    /// `-ERR <msg>` error.
    Error(String),
    /// `:<n>` integer.
    Int(i64),
    /// `*<n>` array of nested replies.
    Array(Vec<Response>),
    /// `*<n>` array of `:1`/`:0` — `MQUERY`'s reply, held as a flat
    /// `Vec<bool>` instead of `n` boxed [`Response::Int`]s so the batch
    /// path's reply buffer can be recycled across requests (see
    /// `Engine::dispatch_with`). Wire encoding is identical to the
    /// equivalent [`Response::Array`].
    Verdicts(Vec<bool>),
    /// `$<len>` bulk string carrying raw bytes (snapshot blobs on the
    /// replication `SYNC` path) — the one reply shape that is not
    /// guaranteed to be UTF-8 text.
    Bulk(Vec<u8>),
}

impl Response {
    /// `+OK`.
    pub fn ok() -> Response {
        Response::Simple("OK".into())
    }

    /// Boolean as the RESP integer convention (`:1` / `:0`).
    pub fn bool(b: bool) -> Response {
        Response::Int(b as i64)
    }

    /// Appends the RESP encoding of this reply to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Simple(s) => {
                out.push(b'+');
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            Response::Error(msg) => {
                out.extend_from_slice(b"-ERR ");
                out.extend_from_slice(msg.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            Response::Int(n) => {
                out.push(b':');
                out.extend_from_slice(n.to_string().as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            Response::Array(items) => {
                out.push(b'*');
                out.extend_from_slice(items.len().to_string().as_bytes());
                out.extend_from_slice(b"\r\n");
                for item in items {
                    item.encode(out);
                }
            }
            Response::Verdicts(verdicts) => {
                out.push(b'*');
                out.extend_from_slice(verdicts.len().to_string().as_bytes());
                out.extend_from_slice(b"\r\n");
                for &v in verdicts {
                    out.extend_from_slice(if v { b":1\r\n" } else { b":0\r\n" });
                }
            }
            Response::Bulk(bytes) => {
                out.push(b'$');
                out.extend_from_slice(bytes.len().to_string().as_bytes());
                out.extend_from_slice(b"\r\n");
                out.extend_from_slice(bytes);
                out.extend_from_slice(b"\r\n");
            }
        }
    }

    /// The encoding as a `String` (lossy only for [`Response::Bulk`]
    /// payloads, which may carry raw bytes; every other shape is UTF-8).
    pub fn encode_to_string(&self) -> String {
        let mut out = Vec::new();
        self.encode(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_verb() {
        assert_eq!(parse_command("PING\r").unwrap(), Command::Ping);
        assert_eq!(parse_command("ping").unwrap(), Command::Ping);
        assert_eq!(
            parse_command("CREATE flows shbf-m 140000 8 4 99").unwrap(),
            Command::Create {
                ns: "flows".into(),
                kind: KindSpec::Membership,
                m: 140_000,
                k: 8,
                extra: Some(4),
                seed: Some(99),
                family: None,
            }
        );
        assert_eq!(
            parse_command("CREATE c shbf-x 4096 6").unwrap(),
            Command::Create {
                ns: "c".into(),
                kind: KindSpec::Multiplicity,
                m: 4096,
                k: 6,
                extra: None,
                seed: None,
                family: None,
            }
        );
        assert_eq!(
            parse_command("insert ns key-1").unwrap(),
            Command::Insert {
                ns: "ns".into(),
                key: b"key-1".to_vec(),
                set: WireSet::S1,
            }
        );
        assert_eq!(
            parse_command("INSERT gw file7 2").unwrap(),
            Command::Insert {
                ns: "gw".into(),
                key: b"file7".to_vec(),
                set: WireSet::S2,
            }
        );
        assert_eq!(
            parse_command("MQUERY ns a b 0x0aff").unwrap(),
            Command::MQuery {
                ns: "ns".into(),
                keys: vec![b"a".to_vec(), b"b".to_vec(), vec![0x0a, 0xff]],
            }
        );
        assert_eq!(
            parse_command("MINSERT ns a b 0x0aff").unwrap(),
            Command::MInsert {
                ns: "ns".into(),
                keys: vec![b"a".to_vec(), b"b".to_vec(), vec![0x0a, 0xff]],
            }
        );
        assert_eq!(
            parse_command("CREATE ids multiset 65536 8 16 7").unwrap(),
            Command::Create {
                ns: "ids".into(),
                kind: KindSpec::MultiSet,
                m: 65_536,
                k: 8,
                extra: Some(16),
                seed: Some(7),
                family: None,
            }
        );
        assert_eq!(
            parse_command("msinsert ids key-1 3").unwrap(),
            Command::MsInsert {
                ns: "ids".into(),
                key: b"key-1".to_vec(),
                set: 3,
            }
        );
        assert_eq!(
            parse_command("MSDELETE ids 0x0aff 0").unwrap(),
            Command::MsDelete {
                ns: "ids".into(),
                key: vec![0x0a, 0xff],
                set: 0,
            }
        );
        assert_eq!(
            parse_command("MSQUERY ids key-1").unwrap(),
            Command::MsQuery {
                ns: "ids".into(),
                key: b"key-1".to_vec(),
            }
        );
        assert_eq!(
            parse_command("WHICH key-1").unwrap(),
            Command::Which {
                key: b"key-1".to_vec(),
            }
        );
        assert_eq!(
            parse_command("mwhich a 0x0aff").unwrap(),
            Command::MWhich {
                keys: vec![b"a".to_vec(), vec![0x0a, 0xff]],
            }
        );
        assert_eq!(
            parse_command("SNAPSHOT /tmp/s.snap").unwrap(),
            Command::Snapshot {
                path: "/tmp/s.snap".into()
            }
        );
        assert_eq!(parse_command("SHUTDOWN").unwrap(), Command::Shutdown);
        assert_eq!(parse_command("QUIT").unwrap(), Command::Quit);
        assert_eq!(
            parse_command("REPLICAOF 127.0.0.1:7878").unwrap(),
            Command::ReplicaOf {
                target: Some("127.0.0.1:7878".into())
            }
        );
        assert_eq!(
            parse_command("replicaof no one").unwrap(),
            Command::ReplicaOf { target: None }
        );
        assert_eq!(
            parse_command("SYNC 42").unwrap(),
            Command::Sync { have: 42 }
        );
        assert_eq!(
            parse_command("PULLOPS r1 7 256").unwrap(),
            Command::PullOps {
                id: "r1".into(),
                from: 7,
                max: 256
            }
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "   ",
            "BOGUS x",
            "CREATE ns shbf-m",
            "CREATE ns nope 100 8",
            "CREATE b@d shbf-m 100 8",
            "CREATE ns shbf-m 100 8 family=nope",
            "CREATE ns shbf-m family=one-shot",
            "INSERT ns",
            "INSERT ns k 3",
            "QUERY ns",
            "MQUERY ns",
            "MINSERT ns",
            "COUNT ns k extra",
            "STATS",
            "SHUTDOWN now",
            "REPLICAOF",
            "REPLICAOF a b",
            "SYNC",
            "SYNC notanumber",
            "PULLOPS id 1",
            "MSINSERT ns key",
            "MSINSERT ns key notanumber",
            "MSQUERY ns",
            "MSQUERY ns k extra",
            "WHICH",
            "WHICH a b",
            "MWHICH",
        ] {
            assert!(parse_command(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn create_takes_a_trailing_family_selector() {
        for (line, family) in [
            ("CREATE ns shbf-m 100000 8", None),
            (
                "CREATE ns shbf-m 100000 8 family=seeded",
                Some(FamilySpec::Seeded),
            ),
            (
                "CREATE ns shbf-m 100000 8 family=one-shot",
                Some(FamilySpec::OneShot),
            ),
            (
                "CREATE ns shbf-m 100000 8 4 family=one-shot",
                Some(FamilySpec::OneShot),
            ),
            (
                "CREATE ns shbf-m 100000 8 4 99 family=one-shot",
                Some(FamilySpec::OneShot),
            ),
        ] {
            match parse_command(line).unwrap() {
                Command::Create { family: f, .. } => assert_eq!(f, family, "{line}"),
                other => panic!("{line} parsed to {other:?}"),
            }
        }
        // The selector is strictly trailing: mid-position is a parse error
        // (it would land in a numeric slot).
        assert!(parse_command("CREATE ns shbf-m 100000 family=one-shot 8").is_err());
    }

    #[test]
    fn key_token_roundtrip() {
        for key in [
            b"plain-token".to_vec(),
            vec![0u8, 1, 2, 255],
            b"with space".to_vec(),
            b"0xlooks-like-hex".to_vec(),
        ] {
            let token = encode_key(&key);
            assert!(
                !token.contains(char::is_whitespace) || key.contains(&b' '),
                "token must be one word"
            );
            assert_eq!(decode_key(&token).unwrap(), key, "token `{token}`");
        }
        assert!(decode_key("0x1").is_err());
        assert!(decode_key("0xzz").is_err());
    }

    #[test]
    fn scan_line_frames_terminated_tail_and_oversize_input() {
        assert_eq!(
            scan_line(b"PING\r\nQUERY", false, 64),
            Scan::Line {
                line: b"PING\r",
                advance: 6
            }
        );
        assert_eq!(scan_line(b"PIN", false, 64), Scan::Incomplete);
        // Unterminated tail is served at EOF, never before.
        assert_eq!(
            scan_line(b"PIN", true, 64),
            Scan::Line {
                line: b"PIN",
                advance: 3
            }
        );
        // Oversize counts the newline for terminated lines: 4 content
        // bytes + newline > 4.
        assert_eq!(scan_line(b"abcd\n", false, 4), Scan::Oversize);
        assert_eq!(
            scan_line(b"abc\n", false, 4),
            Scan::Line {
                line: b"abc",
                advance: 4
            }
        );
        // A growing unterminated line trips the cap without a newline.
        assert_eq!(scan_line(b"abcde", false, 4), Scan::Oversize);
        assert_eq!(scan_line(b"abcd", false, 4), Scan::Incomplete);
    }

    #[test]
    fn responses_encode_as_resp() {
        assert_eq!(Response::ok().encode_to_string(), "+OK\r\n");
        assert_eq!(Response::Int(-3).encode_to_string(), ":-3\r\n");
        assert_eq!(
            Response::Error("boom".into()).encode_to_string(),
            "-ERR boom\r\n"
        );
        assert_eq!(
            Response::Array(vec![Response::bool(true), Response::bool(false)]).encode_to_string(),
            "*2\r\n:1\r\n:0\r\n"
        );
        // Verdicts encode byte-identically to the equivalent Array.
        assert_eq!(
            Response::Verdicts(vec![true, false]).encode_to_string(),
            Response::Array(vec![Response::bool(true), Response::bool(false)]).encode_to_string(),
        );
        assert_eq!(Response::Verdicts(vec![]).encode_to_string(), "*0\r\n");
        // Bulk frames carry raw bytes with a byte-count header.
        let mut out = Vec::new();
        Response::Bulk(vec![0xff, 0x00, b'a']).encode(&mut out);
        assert_eq!(out, b"$3\r\n\xff\x00a\r\n");
    }
}
