//! Engine-level observability: per-command latency histograms, the
//! slow-query log, and event counters for persistence and replication.
//!
//! One [`EngineMetrics`] lives on the [`crate::Engine`] for its whole
//! lifetime. The hot path touches only relaxed atomics; the slow-query
//! log takes a mutex only for commands that actually exceed the
//! configured threshold, and the command summary string is built lazily
//! — fast commands never allocate. Instrumentation can be turned off
//! wholesale with [`EngineMetrics::set_enabled`] (the bench harness
//! uses this for before/after overhead rows).
//!
//! **Sampled timing.** Every dispatched command bumps its per-kind
//! counter (one relaxed increment), but the wall-clock timing that
//! feeds the latency histograms and the slow-query log is *sampled* for
//! single-key commands (`QUERY`/`INSERT`/`DELETE`/`COUNT`/`ASSOC`): one
//! in [`SAMPLE_PERIOD`] is timed. A single-key dispatch is a ~100 ns
//! memory probe, so an unconditional `Instant::now()` pair (~50 ns)
//! would tax the hot path by ~40%; sampling amortizes it to well under
//! 3% while the histograms stay statistically faithful. Batched and
//! administrative commands (`MQUERY`, `MINSERT`, `CREATE`, `SNAPSHOT`,
//! …) are always timed — their cost dwarfs the clock reads, and they
//! are the commands the slow-query log exists to catch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use shbf_metrics::{Counter, Gauge, Histogram};

use crate::protocol::Command;

/// Maximum number of entries the slow-query ring retains; older entries
/// are dropped as new ones arrive.
pub const SLOWLOG_CAP: usize = 128;

/// Default slow-query threshold in microseconds (10 ms).
pub const DEFAULT_SLOWLOG_US: u64 = 10_000;

/// One in this many single-key commands is wall-clock timed (see the
/// module docs on sampled timing).
pub const SAMPLE_PERIOD: u64 = 64;

/// Command kinds that get their own latency histogram (the `cmd` label
/// on `shbf_command_duration_seconds`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CommandKind {
    Query,
    MQuery,
    Insert,
    MInsert,
    Delete,
    Count,
    Assoc,
    Create,
    Drop,
    Stats,
    Snapshot,
    Load,
    MsInsert,
    MsDelete,
    MsQuery,
    Which,
    MWhich,
    /// PING, NAMESPACES, SLOWLOG, replication plumbing, QUIT, SHUTDOWN.
    Other,
}

/// Number of distinct [`CommandKind`]s.
pub const COMMAND_KINDS: usize = 18;

impl CommandKind {
    /// Every kind, in label order.
    pub const ALL: [CommandKind; COMMAND_KINDS] = [
        CommandKind::Query,
        CommandKind::MQuery,
        CommandKind::Insert,
        CommandKind::MInsert,
        CommandKind::Delete,
        CommandKind::Count,
        CommandKind::Assoc,
        CommandKind::Create,
        CommandKind::Drop,
        CommandKind::Stats,
        CommandKind::Snapshot,
        CommandKind::Load,
        CommandKind::MsInsert,
        CommandKind::MsDelete,
        CommandKind::MsQuery,
        CommandKind::Which,
        CommandKind::MWhich,
        CommandKind::Other,
    ];

    /// The Prometheus `cmd` label value.
    pub fn label(self) -> &'static str {
        match self {
            CommandKind::Query => "query",
            CommandKind::MQuery => "mquery",
            CommandKind::Insert => "insert",
            CommandKind::MInsert => "minsert",
            CommandKind::Delete => "delete",
            CommandKind::Count => "count",
            CommandKind::Assoc => "assoc",
            CommandKind::Create => "create",
            CommandKind::Drop => "drop",
            CommandKind::Stats => "stats",
            CommandKind::Snapshot => "snapshot",
            CommandKind::Load => "load",
            CommandKind::MsInsert => "msinsert",
            CommandKind::MsDelete => "msdelete",
            CommandKind::MsQuery => "msquery",
            CommandKind::Which => "which",
            CommandKind::MWhich => "mwhich",
            CommandKind::Other => "other",
        }
    }

    /// Index into the histogram array.
    fn index(self) -> usize {
        match self {
            CommandKind::Query => 0,
            CommandKind::MQuery => 1,
            CommandKind::Insert => 2,
            CommandKind::MInsert => 3,
            CommandKind::Delete => 4,
            CommandKind::Count => 5,
            CommandKind::Assoc => 6,
            CommandKind::Create => 7,
            CommandKind::Drop => 8,
            CommandKind::Stats => 9,
            CommandKind::Snapshot => 10,
            CommandKind::Load => 11,
            CommandKind::MsInsert => 12,
            CommandKind::MsDelete => 13,
            CommandKind::MsQuery => 14,
            CommandKind::Which => 15,
            CommandKind::MWhich => 16,
            CommandKind::Other => 17,
        }
    }

    /// Whether this kind's timing is sampled (single-key hot-path
    /// commands) instead of taken on every dispatch.
    pub fn sampled(self) -> bool {
        matches!(
            self,
            CommandKind::Query
                | CommandKind::Insert
                | CommandKind::Delete
                | CommandKind::Count
                | CommandKind::Assoc
                | CommandKind::MsInsert
                | CommandKind::MsDelete
                | CommandKind::MsQuery
                | CommandKind::Which
        )
    }

    /// Classifies a parsed command.
    pub fn of(cmd: &Command) -> CommandKind {
        match cmd {
            Command::Query { .. } => CommandKind::Query,
            Command::MQuery { .. } => CommandKind::MQuery,
            Command::Insert { .. } => CommandKind::Insert,
            Command::MInsert { .. } => CommandKind::MInsert,
            Command::Delete { .. } => CommandKind::Delete,
            Command::Count { .. } => CommandKind::Count,
            Command::Assoc { .. } => CommandKind::Assoc,
            Command::Create { .. } => CommandKind::Create,
            Command::Drop { .. } => CommandKind::Drop,
            Command::Stats { .. } => CommandKind::Stats,
            Command::Snapshot { .. } => CommandKind::Snapshot,
            Command::Load { .. } => CommandKind::Load,
            Command::MsInsert { .. } => CommandKind::MsInsert,
            Command::MsDelete { .. } => CommandKind::MsDelete,
            Command::MsQuery { .. } => CommandKind::MsQuery,
            Command::Which { .. } => CommandKind::Which,
            Command::MWhich { .. } => CommandKind::MWhich,
            _ => CommandKind::Other,
        }
    }
}

/// A key-free one-line description of a command for the slow-query log:
/// verb, namespace, and key *count* — element keys themselves never
/// enter the log.
pub fn summarize(cmd: &Command) -> String {
    match cmd {
        Command::Ping => "PING".into(),
        Command::Create { ns, kind, m, k, .. } => {
            format!("CREATE {ns} {} m={m} k={k}", kind.name())
        }
        Command::Insert { ns, .. } => format!("INSERT {ns} (1 key)"),
        Command::Delete { ns, .. } => format!("DELETE {ns} (1 key)"),
        Command::Query { ns, .. } => summarize_query(ns),
        Command::MQuery { ns, keys } => summarize_mquery(ns, keys.len()),
        Command::MInsert { ns, keys } => format!("MINSERT {ns} ({} keys)", keys.len()),
        Command::Count { ns, .. } => format!("COUNT {ns} (1 key)"),
        Command::Assoc { ns, .. } => format!("ASSOC {ns} (1 key)"),
        Command::MsInsert { ns, set, .. } => format!("MSINSERT {ns} (1 key) set={set}"),
        Command::MsDelete { ns, set, .. } => format!("MSDELETE {ns} (1 key) set={set}"),
        Command::MsQuery { ns, .. } => format!("MSQUERY {ns} (1 key)"),
        Command::Which { .. } => "WHICH (1 key)".into(),
        Command::MWhich { keys } => format!("MWHICH ({} keys)", keys.len()),
        Command::Stats { ns } => format!("STATS {ns}"),
        Command::Namespaces => "NAMESPACES".into(),
        Command::Drop { ns } => format!("DROP {ns}"),
        Command::Snapshot { path } => format!("SNAPSHOT {path}"),
        Command::Load { path } => format!("LOAD {path}"),
        Command::ReplicaOf { target } => match target {
            Some(t) => format!("REPLICAOF {t}"),
            None => "REPLICAOF NO ONE".into(),
        },
        Command::Sync { have } => format!("SYNC {have}"),
        Command::PullOps { id, from, max } => format!("PULLOPS {id} {from} {max}"),
        Command::SlowLog { .. } => "SLOWLOG".into(),
        Command::Trace { .. } => "TRACE".into(),
        Command::FailPoint { .. } => "FAILPOINT".into(),
        Command::Shutdown => "SHUTDOWN".into(),
        Command::Quit => "QUIT".into(),
    }
}

/// [`summarize`] of `QUERY ns key`, for a query the engine answers
/// without a [`Command`].
pub fn summarize_query(ns: &str) -> String {
    format!("QUERY {ns} (1 key)")
}

/// [`summarize`] of an `MQUERY` of `keys` keys in `ns`.
pub fn summarize_mquery(ns: &str, keys: usize) -> String {
    format!("MQUERY {ns} ({keys} keys)")
}

/// One slow-query log entry (`SLOWLOG GET` reply line:
/// `+<id> <unix_ts> <duration_us> trace=<id|-> parse=<µs|-> engine=<µs|->
/// wal=<µs|-> write=<µs|-> <summary>`).
#[derive(Debug, Clone)]
pub struct SlowLogEntry {
    /// Monotonically increasing entry id (survives `SLOWLOG RESET`).
    pub id: u64,
    /// Unix timestamp (seconds) when the command finished.
    pub unix_ts: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Id of the span tree recorded for this request, when the request
    /// was traced (the trace is pinned in the slow side ring, so
    /// `SLOWLOG GET` can render its per-phase breakdown).
    pub trace_id: Option<u64>,
    /// Key-free command summary (see [`summarize`]).
    pub summary: String,
}

#[derive(Debug, Default)]
struct SlowLogRing {
    next_id: u64,
    entries: VecDeque<SlowLogEntry>,
}

/// Seconds since the Unix epoch (0 if the clock is before the epoch).
pub(crate) fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// All engine-side observability state: per-command latency histograms,
/// the slow-query ring, and counters stamped by the persistence and
/// replication layers. Scraped by `GET /metrics` and the `STATS server`
/// / `SLOWLOG` commands.
#[derive(Debug)]
pub struct EngineMetrics {
    enabled: AtomicBool,
    start: Instant,
    start_unix: u64,
    /// Dispatches per kind — every command, timed or not. The running
    /// value doubles as the sampling tick, so the hot path pays exactly
    /// one atomic RMW.
    dispatched: [AtomicU64; COMMAND_KINDS],
    /// Latency histograms per kind (sampled for single-key kinds).
    commands: [Histogram; COMMAND_KINDS],
    slowlog_threshold_us: AtomicU64,
    slowlog: Mutex<SlowLogRing>,
    /// PULLOPS requests answered from the in-memory recent-ops ring.
    pub pullops_ring: Counter,
    /// PULLOPS requests that fell back to scanning WAL segments on disk.
    pub pullops_disk: Counter,
    /// Times this node restarted replication from scratch (full resync).
    pub resyncs: Counter,
    /// Replica-applier reconnect attempts (each serve-link stint that
    /// ended, successfully established or not).
    pub replica_reconnects: Counter,
    /// Current applier reconnect backoff in milliseconds (0 while the
    /// link is up; grows exponentially with jitter while it is down).
    pub replica_backoff_ms: Gauge,
    /// WAL I/O failures on the mutation path (append/fsync/rotate/
    /// snapshot errors). The first one flips the engine read-only.
    pub wal_io_errors: Counter,
    /// Snapshots written (startup recovery snapshots included).
    pub snapshots: Counter,
    /// Unix timestamp of the newest snapshot (0 = none yet).
    snapshot_unix: AtomicU64,
    /// Unix timestamp of the last op applied from a primary (0 = never).
    pub(crate) replica_last_apply_unix: AtomicU64,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// Creates the metrics state; instrumentation starts enabled with the
    /// default slow-query threshold.
    pub fn new() -> Self {
        EngineMetrics {
            enabled: AtomicBool::new(true),
            start: Instant::now(),
            start_unix: now_unix(),
            dispatched: [const { AtomicU64::new(0) }; COMMAND_KINDS],
            commands: [const { Histogram::new() }; COMMAND_KINDS],
            slowlog_threshold_us: AtomicU64::new(DEFAULT_SLOWLOG_US),
            slowlog: Mutex::new(SlowLogRing::default()),
            pullops_ring: Counter::new(),
            pullops_disk: Counter::new(),
            resyncs: Counter::new(),
            replica_reconnects: Counter::new(),
            replica_backoff_ms: Gauge::new(),
            wal_io_errors: Counter::new(),
            snapshots: Counter::new(),
            snapshot_unix: AtomicU64::new(0),
            replica_last_apply_unix: AtomicU64::new(0),
        }
    }

    /// Whether dispatch timing is recorded (on by default; the bench
    /// harness flips this for overhead baselines).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables dispatch timing.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Counts one dispatched command (timed or not).
    #[inline]
    pub fn count(&self, kind: CommandKind) {
        self.dispatched[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one dispatched command and says whether this dispatch
    /// should take the wall clock: always for batched/administrative
    /// kinds, one in [`SAMPLE_PERIOD`] for single-key kinds.
    #[inline]
    pub fn count_and_should_time(&self, kind: CommandKind) -> bool {
        self.count_run_and_timed(kind, 1) > 0
    }

    /// Counts a run of `n` dispatches of one kind and returns how many of
    /// them take the wall clock — exactly as many as `n` calls of
    /// [`Self::count_and_should_time`] would report, so a batch of
    /// coalesced single-key commands lands in the same series as the
    /// commands sent one by one.
    ///
    /// Single-key kinds run in ~140 ns, so even one relaxed `fetch_add`
    /// (a locked RMW, ~10 ns on commodity x86) costs several percent of
    /// the dispatch path. A single one of them therefore counts with a
    /// plain relaxed load + store pair instead: monotone and exact for a
    /// single dispatching thread, with a one-instruction undercount window
    /// when two threads dispatch the *same* kind simultaneously. A run
    /// (`n > 1`) shares one RMW among its commands, and batched and
    /// administrative kinds are rare and heavy, so those keep the exact
    /// RMW.
    #[inline]
    pub fn count_run_and_timed(&self, kind: CommandKind, n: u64) -> u64 {
        let slot = &self.dispatched[kind.index()];
        if !kind.sampled() {
            slot.fetch_add(n, Ordering::Relaxed);
            return n;
        }
        if n == 1 {
            let tick = slot.load(Ordering::Relaxed);
            slot.store(tick.wrapping_add(1), Ordering::Relaxed);
            return u64::from(tick.is_multiple_of(SAMPLE_PERIOD));
        }
        let tick = slot.fetch_add(n, Ordering::Relaxed);
        // Multiples of the period among the run's ticks `tick..tick + n`.
        tick.wrapping_add(n)
            .div_ceil(SAMPLE_PERIOD)
            .wrapping_sub(tick.div_ceil(SAMPLE_PERIOD))
    }

    /// Records one completed command: histogram observation plus a
    /// slow-query entry when `took` exceeds the threshold. `summary` is
    /// only invoked for slow commands.
    #[inline]
    pub fn observe(&self, kind: CommandKind, took: Duration, summary: impl FnOnce() -> String) {
        let ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        self.commands[kind.index()].record(ns);
        let threshold = self.slowlog_threshold_us.load(Ordering::Relaxed);
        let us = ns / 1_000;
        if threshold > 0 && us >= threshold {
            // Slow-trace capture: pin the request's span tree (if it was
            // sampled) so the entry's trace id stays resolvable after the
            // recent-traces ring churns past it.
            let trace_id = shbf_trace::current_trace_id();
            if trace_id.is_some() {
                shbf_trace::retain_current();
            }
            let mut ring = self.slowlog.lock();
            let id = ring.next_id;
            ring.next_id += 1;
            if ring.entries.len() == SLOWLOG_CAP {
                ring.entries.pop_front();
            }
            ring.entries.push_back(SlowLogEntry {
                id,
                unix_ts: now_unix(),
                duration_us: us,
                trace_id,
                summary: summary(),
            });
        }
    }

    /// The latency histogram for one command kind. Its `count()` is the
    /// number of *timed* dispatches, which for sampled kinds is lower
    /// than [`Self::command_count`].
    pub fn command_histogram(&self, kind: CommandKind) -> &Histogram {
        &self.commands[kind.index()]
    }

    /// Dispatches of one command kind (every command, timed or not).
    pub fn command_count(&self, kind: CommandKind) -> u64 {
        self.dispatched[kind.index()].load(Ordering::Relaxed)
    }

    /// Total commands dispatched across every kind.
    pub fn commands_total(&self) -> u64 {
        self.dispatched
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sets the slow-query threshold in microseconds (0 disables the
    /// slow-query log; histograms keep recording).
    pub fn set_slowlog_threshold_us(&self, us: u64) {
        self.slowlog_threshold_us.store(us, Ordering::Relaxed);
    }

    /// Current slow-query threshold in microseconds.
    pub fn slowlog_threshold_us(&self) -> u64 {
        self.slowlog_threshold_us.load(Ordering::Relaxed)
    }

    /// The newest `n` slow-query entries, newest first.
    pub fn slowlog_get(&self, n: usize) -> Vec<SlowLogEntry> {
        let ring = self.slowlog.lock();
        ring.entries.iter().rev().take(n).cloned().collect()
    }

    /// Clears the slow-query ring (entry ids keep counting up).
    pub fn slowlog_reset(&self) {
        self.slowlog.lock().entries.clear();
    }

    /// Number of retained slow-query entries.
    pub fn slowlog_len(&self) -> usize {
        self.slowlog.lock().entries.len()
    }

    /// Stamps a completed snapshot: bumps the counter and the
    /// newest-snapshot timestamp.
    pub fn note_snapshot(&self) {
        self.snapshots.inc();
        self.snapshot_unix.store(now_unix(), Ordering::Relaxed);
    }

    /// Seconds since the newest snapshot, or `None` if none was written.
    pub fn snapshot_age_secs(&self) -> Option<u64> {
        let at = self.snapshot_unix.load(Ordering::Relaxed);
        (at != 0).then(|| now_unix().saturating_sub(at))
    }

    /// Stamps an op applied from the primary (replica side).
    pub(crate) fn note_replica_apply(&self) {
        self.replica_last_apply_unix
            .store(now_unix(), Ordering::Relaxed);
    }

    /// Seconds since the replica last applied an op from its primary, or
    /// `None` if it never applied one.
    pub fn replica_apply_age_secs(&self) -> Option<u64> {
        let at = self.replica_last_apply_unix.load(Ordering::Relaxed);
        (at != 0).then(|| now_unix().saturating_sub(at))
    }

    /// Seconds this engine has been up.
    pub fn uptime_secs(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Unix timestamp (seconds) when this engine was created.
    pub fn start_unix(&self) -> u64 {
        self.start_unix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_records_and_slowlogs() {
        let m = EngineMetrics::new();
        m.set_slowlog_threshold_us(1_000);
        m.count(CommandKind::Query);
        m.observe(CommandKind::Query, Duration::from_micros(5), || {
            unreachable!("fast command must not build a summary")
        });
        m.count(CommandKind::Query);
        m.observe(CommandKind::Query, Duration::from_millis(5), || {
            "QUERY ns (1 key)".into()
        });
        assert_eq!(m.command_histogram(CommandKind::Query).count(), 2);
        assert_eq!(m.command_count(CommandKind::Query), 2);
        assert_eq!(m.commands_total(), 2);
        assert_eq!(m.slowlog_len(), 1);
        let entries = m.slowlog_get(10);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].id, 0);
        assert_eq!(entries[0].summary, "QUERY ns (1 key)");
        assert!(entries[0].duration_us >= 5_000);
        m.slowlog_reset();
        assert_eq!(m.slowlog_len(), 0);
        // Ids keep counting after a reset.
        m.observe(CommandKind::Drop, Duration::from_millis(2), || {
            "DROP x".into()
        });
        assert_eq!(m.slowlog_get(1)[0].id, 1);
    }

    #[test]
    fn slowlog_ring_is_bounded_and_newest_first() {
        let m = EngineMetrics::new();
        m.set_slowlog_threshold_us(1);
        for i in 0..(SLOWLOG_CAP + 10) {
            m.observe(CommandKind::Other, Duration::from_micros(10), || {
                format!("PING #{i}")
            });
        }
        assert_eq!(m.slowlog_len(), SLOWLOG_CAP);
        let got = m.slowlog_get(2);
        assert!(got[0].id > got[1].id, "newest first");
        assert_eq!(got[0].id as usize, SLOWLOG_CAP + 9);
    }

    #[test]
    fn zero_threshold_disables_slowlog() {
        let m = EngineMetrics::new();
        m.set_slowlog_threshold_us(0);
        m.observe(CommandKind::Query, Duration::from_secs(1), || {
            unreachable!("slowlog disabled")
        });
        assert_eq!(m.slowlog_len(), 0);
        assert_eq!(m.command_histogram(CommandKind::Query).count(), 1);
    }

    #[test]
    fn kind_classification_and_labels() {
        let cmd = crate::protocol::parse_command("MQUERY ns a b c").unwrap();
        assert_eq!(CommandKind::of(&cmd), CommandKind::MQuery);
        assert_eq!(summarize(&cmd), "MQUERY ns (3 keys)");
        let ping = crate::protocol::parse_command("PING").unwrap();
        assert_eq!(CommandKind::of(&ping), CommandKind::Other);
        for kind in CommandKind::ALL {
            assert!(shbf_metrics::valid_metric_name(kind.label()));
        }
    }

    #[test]
    fn sampled_kinds_time_one_in_sample_period() {
        let m = EngineMetrics::new();
        // Batched/administrative kinds are timed on every dispatch.
        for _ in 0..10 {
            assert!(m.count_and_should_time(CommandKind::MQuery));
            assert!(m.count_and_should_time(CommandKind::Create));
        }
        assert_eq!(m.command_count(CommandKind::MQuery), 10);
        // Single-key kinds: exactly one in SAMPLE_PERIOD, starting with
        // the first, and every dispatch still counts.
        let timed = (0..(SAMPLE_PERIOD * 3))
            .filter(|_| m.count_and_should_time(CommandKind::Query))
            .count() as u64;
        assert_eq!(timed, 3);
        assert_eq!(m.command_count(CommandKind::Query), SAMPLE_PERIOD * 3);
        assert!(CommandKind::Query.sampled());
        assert!(!CommandKind::MInsert.sampled());
    }

    #[test]
    fn counted_runs_time_as_their_single_dispatches_would() {
        let (runs, singles) = (EngineMetrics::new(), EngineMetrics::new());
        for n in [1u64, 3, 64, 0, 63, 2, 130, 1, 64, 7] {
            let timed = (0..n)
                .filter(|_| singles.count_and_should_time(CommandKind::Query))
                .count() as u64;
            assert_eq!(runs.count_run_and_timed(CommandKind::Query, n), timed);
            assert_eq!(runs.count_run_and_timed(CommandKind::MQuery, n), n);
        }
        assert_eq!(
            runs.command_count(CommandKind::Query),
            singles.command_count(CommandKind::Query)
        );
    }

    #[test]
    fn racing_runs_are_counted_exactly() {
        let m = EngineMetrics::new();
        let timed = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        (0..20_000)
                            .map(|_| m.count_run_and_timed(CommandKind::Query, 3))
                            .sum::<u64>()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
        });
        assert_eq!(m.command_count(CommandKind::Query), 120_000);
        assert_eq!(timed, 120_000u64.div_ceil(SAMPLE_PERIOD));
    }

    #[test]
    fn snapshot_age_stamps() {
        let m = EngineMetrics::new();
        assert_eq!(m.snapshot_age_secs(), None);
        m.note_snapshot();
        assert_eq!(m.snapshots.get(), 1);
        assert!(m.snapshot_age_secs().unwrap() <= 1);
    }
}
