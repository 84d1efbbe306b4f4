//! Durability: the engine's write-ahead op-log plus snapshot + truncate
//! recovery.
//!
//! When a server runs with `wal_dir` set, every **successful mutation**
//! (`CREATE`/`DROP`/`INSERT`/`DELETE`/`MINSERT`/`MSINSERT`/`MSDELETE`)
//! is re-encoded as its
//! canonical request line (see [`encode_op`]) and appended to a
//! [`shbf_wal::Wal`] before the reply leaves. Every
//! `snapshot_every_ops` mutations, the whole registry is serialized to a
//! `state-<seq>.snap` file in the same directory and the log is
//! truncated behind it, so recovery cost stays proportional to the
//! snapshot interval rather than total history.
//!
//! Boot recovery ([`Durability::open`]): load the newest parsable state
//! file (older ones are fallbacks against torn or bit-flipped files —
//! the two newest are retained), open the log at that sequence number
//! (the newest segment's torn tail, if any, is truncated by the WAL
//! itself), and replay the tail of op lines through the normal dispatch
//! path. Replay is deterministic because [`encode_op`] resolves every
//! defaulted `CREATE` parameter (shards, max count, seed) to its
//! concrete value before logging.
//!
//! Consistency: the engine wraps this state in a mutex that **all**
//! mutations take around apply + append, so a snapshot taken under the
//! same lock is exact for a log position — replaying `seq > S` onto
//! state `S` cannot double-apply a non-idempotent op (`shbf-x` counts,
//! counting-filter increments). Queries stay fully concurrent; their
//! hit/miss counters are not logged, so restored counters reflect the
//! last snapshot, not the crash instant.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use shbf_bits::{Reader, Writer};
use shbf_wal::{FsyncPolicy, Wal, WalConfig, WalError};

use crate::protocol::{encode_key, Command, KindSpec, WireSet};
use crate::registry::{Registry, DEFAULT_MAX_COUNT, DEFAULT_SEED, DEFAULT_SETS, DEFAULT_SHARDS};
use crate::snapshot;

/// Codec kind tag for `state-<seq>.snap` files: a registry snapshot blob
/// wrapped with the log sequence number it is exact at.
pub const STATE_KIND: u16 = 65;

/// How many state files to retain (the newest, plus fallbacks against a
/// torn or bit-flipped newest file).
const KEEP_STATE_FILES: usize = 2;

/// In-memory ring of the most recent op lines, mirrored at append time
/// so replication tails are served without re-reading segment files
/// under the mutation lock. Sized past the largest `PULLOPS` batch.
const RECENT_OPS: usize = 4096;

/// Op line logged at a `LOAD` boundary. `LOAD` replaces the whole
/// registry from a primary-local file, so it cannot be replayed from the
/// log; the marker exists to consume a sequence number right before the
/// forced snapshot truncates the log, which makes every pre-`LOAD`
/// replica position stale and forces tailing replicas to full-resync
/// onto the post-`LOAD` snapshot. Boot replay skips it
/// ([`crate::engine::Engine`]); a replica that still receives one (crash
/// before the truncation landed) treats it as a resync demand.
pub(crate) const LOAD_MARKER: &str = "#LOAD";

fn state_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("state-{seq:020}.snap"))
}

fn parse_state_name(name: &str) -> Option<u64> {
    name.strip_prefix("state-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

fn wal_err(e: WalError) -> std::io::Error {
    match e {
        WalError::Io(e) => e,
        corrupt => std::io::Error::other(corrupt.to_string()),
    }
}

/// Re-encodes a mutation as its canonical request line for the op-log;
/// `None` for non-mutations. Every parameter the user left defaulted is
/// written out explicitly so replay builds byte-identical filters even
/// if defaults ever change.
pub(crate) fn encode_op(cmd: &Command) -> Option<String> {
    fn set_token(set: &WireSet) -> &'static str {
        match set {
            WireSet::S1 => "1",
            WireSet::S2 => "2",
        }
    }
    match cmd {
        Command::Create {
            ns,
            kind,
            m,
            k,
            extra,
            seed,
            family,
        } => {
            let mut line = format!("CREATE {ns} {kind} {m} {k}");
            match kind {
                // 5th token is the kind-specific extra, 6th the seed.
                KindSpec::Membership => {
                    line.push_str(&format!(
                        " {} {}",
                        extra.unwrap_or(DEFAULT_SHARDS),
                        seed.unwrap_or(DEFAULT_SEED)
                    ));
                }
                KindSpec::Multiplicity => {
                    line.push_str(&format!(
                        " {} {}",
                        extra.unwrap_or(DEFAULT_MAX_COUNT),
                        seed.unwrap_or(DEFAULT_SEED)
                    ));
                }
                KindSpec::MultiSet => {
                    line.push_str(&format!(
                        " {} {}",
                        extra.unwrap_or(DEFAULT_SETS),
                        seed.unwrap_or(DEFAULT_SEED)
                    ));
                }
                // shbf-a has no extra: its bare 5th token IS the seed
                // (both positions set never reaches the log — the CREATE
                // fails and only successful mutations are appended).
                KindSpec::Association => {
                    let seed = extra.map(|e| e as u64).or(*seed).unwrap_or(DEFAULT_SEED);
                    line.push_str(&format!(" {seed}"));
                }
            }
            if let Some(f) = family {
                line.push_str(&format!(" family={f}"));
            }
            Some(line)
        }
        Command::Drop { ns } => Some(format!("DROP {ns}")),
        Command::Insert { ns, key, set } => Some(format!(
            "INSERT {ns} {} {}",
            encode_key(key),
            set_token(set)
        )),
        Command::Delete { ns, key, set } => Some(format!(
            "DELETE {ns} {} {}",
            encode_key(key),
            set_token(set)
        )),
        Command::MInsert { ns, keys } => {
            let mut line = format!("MINSERT {ns}");
            for key in keys {
                line.push(' ');
                line.push_str(&encode_key(key));
            }
            Some(line)
        }
        Command::MsInsert { ns, key, set } => {
            Some(format!("MSINSERT {ns} {} {set}", encode_key(key)))
        }
        Command::MsDelete { ns, key, set } => {
            Some(format!("MSDELETE {ns} {} {set}", encode_key(key)))
        }
        _ => None,
    }
}

/// The engine's persistence state, guarded by the engine's mutation
/// mutex.
pub(crate) struct Durability {
    wal: Wal,
    dir: PathBuf,
    /// Take a state snapshot every this many logged ops (`0` = only at
    /// explicit boundaries like `LOAD`).
    snapshot_every_ops: u64,
    ops_since_snapshot: u64,
    /// Ring of the most recent op lines (seq ascending, contiguous) —
    /// the replication-tail fast path that spares the mutation lock any
    /// disk reads.
    recent: VecDeque<(u64, String)>,
    /// Reported by `STATS replication`.
    pub(crate) fsync: FsyncPolicy,
}

impl Durability {
    /// Recovers state from `dir` into `registry` (newest parsable state
    /// file, then the op-log tail through `replay`) and opens the log
    /// for appending.
    pub(crate) fn open(
        dir: &Path,
        fsync: FsyncPolicy,
        snapshot_every_ops: u64,
        registry: &Registry,
        mut replay: impl FnMut(u64, &str) -> Result<(), String>,
    ) -> std::io::Result<Durability> {
        std::fs::create_dir_all(dir)?;
        // Newest state file that parses wins; `load_bytes` is atomic on
        // failure, so trying a torn newest file cannot corrupt the
        // registry before the fallback loads.
        let mut states: Vec<u64> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().and_then(parse_state_name))
            .collect();
        states.sort_unstable_by(|a, b| b.cmp(a));
        let mut base_seq = 0u64;
        for seq in &states {
            let path = state_path(dir, *seq);
            let parsed = std::fs::read(&path).ok().and_then(|blob| {
                let mut r = Reader::new(&blob, STATE_KIND).ok()?;
                let seq_in_file = r.u64().ok()?;
                let registry_blob = r.bytes().ok()?;
                r.expect_end().ok()?;
                snapshot::load_bytes(registry, registry_blob).ok()?;
                Some(seq_in_file)
            });
            if let Some(seq) = parsed {
                base_seq = seq;
                break;
            }
        }

        let config = WalConfig {
            dir: dir.to_path_buf(),
            fsync,
            segment_bytes: 8 << 20,
        };
        let wal = Wal::open(&config, base_seq).map_err(wal_err)?;
        if wal.oldest_seq() > base_seq + 1 && wal.last_seq() >= wal.oldest_seq() {
            return Err(std::io::Error::other(format!(
                "wal recovery: log starts at seq {} but newest loadable snapshot is at {}",
                wal.oldest_seq(),
                base_seq
            )));
        }
        let mut replay_error = None;
        let mut recent: VecDeque<(u64, String)> = VecDeque::new();
        wal.scan_after(base_seq, usize::MAX, |seq, payload| {
            if replay_error.is_some() {
                return;
            }
            let line = String::from_utf8_lossy(payload);
            if let Err(e) = replay(seq, &line) {
                replay_error = Some(format!("wal replay: op {seq} (`{line}`): {e}"));
                return;
            }
            // Seed the tail ring so replicas reconnecting right after a
            // primary restart are served from memory.
            recent.push_back((seq, line.into_owned()));
            if recent.len() > RECENT_OPS {
                recent.pop_front();
            }
        })
        .map_err(wal_err)?;
        if let Some(msg) = replay_error {
            return Err(std::io::Error::other(msg));
        }
        Ok(Durability {
            wal,
            dir: dir.to_path_buf(),
            snapshot_every_ops,
            ops_since_snapshot: 0,
            recent,
            fsync,
        })
    }

    /// Appends one canonical op line; returns its sequence number.
    pub(crate) fn append_op(&mut self, line: &str) -> std::io::Result<u64> {
        self.ops_since_snapshot += 1;
        let seq = self.wal.append(line.as_bytes()).map_err(wal_err)?;
        self.recent.push_back((seq, line.to_string()));
        if self.recent.len() > RECENT_OPS {
            self.recent.pop_front();
        }
        Ok(seq)
    }

    /// Flushes pending WAL appends to stable storage (the `everysec`
    /// background flusher and the server shutdown path; cheap no-op when
    /// nothing is pending).
    pub(crate) fn sync(&mut self) -> std::io::Result<()> {
        self.wal.sync().map_err(wal_err)
    }

    /// Takes a state snapshot if the op interval has elapsed. Called with
    /// the mutation lock held, so the registry is exact at
    /// `wal.last_seq()`. Returns whether a snapshot was written (the
    /// engine stamps its snapshot-age metric off this).
    pub(crate) fn maybe_snapshot(&mut self, registry: &Registry) -> std::io::Result<bool> {
        if self.snapshot_every_ops > 0 && self.ops_since_snapshot >= self.snapshot_every_ops {
            self.snapshot_now(registry)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Persists the registry as `state-<seq>.snap`, truncates the log
    /// behind it, and prunes all but the newest [`KEEP_STATE_FILES`]
    /// state files.
    pub(crate) fn snapshot_now(&mut self, registry: &Registry) -> std::io::Result<u64> {
        let span = shbf_trace::span("snapshot_write");
        let seq = self.wal.last_seq();
        span.attr("seq", seq);
        let mut w = Writer::new(STATE_KIND);
        w.u64(seq).bytes(&snapshot::to_bytes(registry));
        snapshot::write_atomic(&state_path(&self.dir, seq), &w.finish())?;
        self.wal.rotate().map_err(wal_err)?;
        self.wal.truncate_through(seq).map_err(wal_err)?;
        self.ops_since_snapshot = 0;
        let mut states: Vec<u64> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().and_then(parse_state_name))
            .collect();
        states.sort_unstable_by(|a, b| b.cmp(a));
        for old in states.into_iter().skip(KEEP_STATE_FILES) {
            let _ = std::fs::remove_file(state_path(&self.dir, old));
        }
        Ok(seq)
    }

    /// Sequence number of the last logged op.
    pub(crate) fn last_seq(&self) -> u64 {
        self.wal.last_seq()
    }

    /// The WAL's shared instrumentation (append/fsync histograms,
    /// rotation and truncation counters) for the metrics endpoint.
    pub(crate) fn wal_metrics(&self) -> std::sync::Arc<shbf_wal::WalMetrics> {
        self.wal.metrics()
    }

    /// Number of live log segment files.
    pub(crate) fn segment_count(&self) -> usize {
        self.wal.segment_count()
    }

    /// Oldest sequence number the log still covers.
    pub(crate) fn oldest_seq(&self) -> u64 {
        self.wal.oldest_seq()
    }

    /// Serves up to `max` ops with `seq > after` from the in-memory ring
    /// — no disk reads while the caller holds the mutation lock. Returns
    /// `false` (visiting nothing) when the ring does not reach back to
    /// `after`; the caller falls back to [`Self::scan_after`], which is
    /// rare (a replica more than [`RECENT_OPS`] ops behind but still
    /// within the log).
    pub(crate) fn recent_tail(&self, after: u64, max: usize, mut f: impl FnMut(u64, &str)) -> bool {
        if after >= self.wal.last_seq() {
            return true; // nothing newer exists; the empty tail is exact
        }
        match self.recent.front() {
            Some(&(front_seq, _)) if front_seq <= after + 1 => {
                for (seq, line) in self
                    .recent
                    .iter()
                    .skip_while(|(seq, _)| *seq <= after)
                    .take(max)
                {
                    f(*seq, line);
                }
                true
            }
            _ => false,
        }
    }

    /// Visits up to `max` logged ops with `seq > after` (replication
    /// tailing). Caller holds the mutation lock, so the log cannot
    /// rotate or truncate mid-scan.
    pub(crate) fn scan_after(
        &self,
        after: u64,
        max: usize,
        f: impl FnMut(u64, &[u8]),
    ) -> std::io::Result<usize> {
        self.wal.scan_after(after, max, f).map_err(wal_err)
    }

    /// Registry snapshot blob at the current log position (replication
    /// full-sync). Caller holds the mutation lock.
    pub(crate) fn sync_blob(&self, registry: &Registry) -> (u64, Vec<u8>) {
        (self.wal.last_seq(), snapshot::to_bytes(registry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_command;

    fn op(line: &str) -> String {
        encode_op(&parse_command(line).unwrap()).unwrap()
    }

    #[test]
    fn encode_op_makes_defaults_explicit() {
        // Defaulted CREATE parameters are resolved so replay is immune to
        // future default changes.
        assert_eq!(
            op("CREATE flows shbf-m 140000 8"),
            format!("CREATE flows shbf-m 140000 8 {DEFAULT_SHARDS} {DEFAULT_SEED}")
        );
        assert_eq!(
            op("CREATE sizes shbf-x 8192 6"),
            format!("CREATE sizes shbf-x 8192 6 {DEFAULT_MAX_COUNT} {DEFAULT_SEED}")
        );
        assert_eq!(
            op("CREATE gw shbf-a 8192 6"),
            format!("CREATE gw shbf-a 8192 6 {DEFAULT_SEED}")
        );
        assert_eq!(
            op("CREATE tags multiset 8192 4"),
            format!("CREATE tags multiset 8192 4 {DEFAULT_SETS} {DEFAULT_SEED}")
        );
        // Explicit values and the family selector pass through.
        assert_eq!(
            op("CREATE flows shbf-m 140000 8 4 99 family=one-shot"),
            "CREATE flows shbf-m 140000 8 4 99 family=one-shot"
        );
        // shbf-a's bare 5th token (the seed) survives the round trip.
        assert_eq!(op("CREATE gw shbf-a 8192 6 7"), "CREATE gw shbf-a 8192 6 7");
    }

    #[test]
    fn encode_op_roundtrips_through_the_parser() {
        for line in [
            "CREATE flows shbf-m 140000 8",
            "INSERT flows key-1",
            "INSERT gw file7 2",
            "DELETE flows key-1",
            "MINSERT flows a b 0x0aff",
            "CREATE tags multiset 8192 4 12 7",
            "MSINSERT tags key-1 3",
            "MSDELETE tags key-1 3",
            "DROP flows",
        ] {
            let encoded = op(line);
            let reparsed = parse_command(&encoded).unwrap();
            // Re-encoding the replayed command is a fixed point.
            assert_eq!(encode_op(&reparsed).unwrap(), encoded, "{line}");
        }
        // Non-mutations are not logged.
        for line in ["PING", "QUERY ns k", "STATS ns", "SNAPSHOT /tmp/x"] {
            assert!(encode_op(&parse_command(line).unwrap()).is_none(), "{line}");
        }
    }

    #[test]
    fn binary_keys_log_as_hex_tokens() {
        let cmd = Command::Insert {
            ns: "ns".into(),
            key: vec![0x00, 0xff, b' '],
            set: WireSet::S1,
        };
        assert_eq!(encode_op(&cmd).unwrap(), "INSERT ns 0x00ff20 1");
    }
}
