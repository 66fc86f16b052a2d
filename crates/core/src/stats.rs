//! Translation-time instrumentation for the Fig. 12(b) measurements:
//! "the time from when the message was first received by the framework
//! until the translated output response was sent on the output socket".
//!
//! Two aggregation layers serve the sharded runtime:
//!
//! * every shard's engine owns a plain [`BridgeStats`] it updates with
//!   zero contention (nothing else touches that handle's mutex);
//! * the lifecycle counters are additionally *mirrored* into one shared
//!   [`AtomicConcurrency`] ([`BridgeStats::with_mirror`]) — plain atomic
//!   adds, no locks — so the fleet-wide gauge (including the true global
//!   `peak_active` high-water mark) is readable while every shard runs.
//!
//! [`BridgeStats::merge_from`] / [`ConcurrencyStats::merge`] fold
//! per-shard snapshots into one report after the fact.
//!
//! Nothing here grows with the traffic served: completed sessions and
//! engine errors are exact counts (plus the sessions' summed
//! translation time) over a constant-size window of the most recent
//! records.

use starlink_net::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Completed-session records a stats handle retains (the most recent).
pub const SESSION_WINDOW: usize = 1024;

/// Engine error messages a stats handle retains (the most recent).
pub const ERROR_WINDOW: usize = 64;

/// One completed bridge session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRecord {
    /// When the first message of the session entered the framework.
    pub started: SimTime,
    /// When the final translated response left the output socket.
    pub finished: SimTime,
}

impl SessionRecord {
    /// The translation time of this session.
    pub fn translation_time(&self) -> SimDuration {
        self.finished.since(self.started)
    }
}

/// Session-lifecycle counters of a multi-session bridge: how many
/// sessions were opened, how many are live right now, the concurrency
/// high-water mark, and how the closed ones ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcurrencyStats {
    /// Sessions opened since deployment.
    pub started: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Sessions torn down after a compose/emit/⊨ failure.
    pub failed: u64,
    /// Sessions reaped by the idle-expiry timer.
    pub expired: u64,
    /// Sessions live right now (the concurrency gauge).
    pub active: u64,
    /// Highest number of simultaneously live sessions observed.
    pub peak_active: u64,
}

impl ConcurrencyStats {
    /// The lifecycle-accounting invariant: every session ever opened is
    /// in exactly one bucket, so
    /// `started == active + completed + failed + expired`. Holds for a
    /// single engine's counters, for per-shard counters, for their
    /// merged sum and for the lock-free mirror's snapshot (each
    /// transition updates both sides of the equation together).
    pub fn is_balanced(&self) -> bool {
        self.started == self.active + self.completed + self.failed + self.expired
    }

    /// Panics with the full counter set unless [`Self::is_balanced`] —
    /// the assertion every integration test runs against its bridge's
    /// stats.
    ///
    /// # Panics
    ///
    /// Panics when the invariant is violated; `context` names the
    /// offending bridge/shard in the message.
    pub fn assert_balanced(&self, context: &str) {
        assert!(
            self.is_balanced(),
            "{context}: session accounting broken: started {} != active {} + completed {} \
             + failed {} + expired {} (peak {})",
            self.started,
            self.active,
            self.completed,
            self.failed,
            self.expired,
            self.peak_active
        );
    }

    /// Folds another counter set into this one: every counter is summed.
    ///
    /// Summing `peak_active` makes the merged peak an *upper bound* on
    /// the true global high-water mark (shards rarely peak at the same
    /// instant); the shared [`AtomicConcurrency`] mirror tracks the
    /// exact global peak live.
    pub fn merge(&mut self, other: &ConcurrencyStats) {
        self.started += other.started;
        self.completed += other.completed;
        self.failed += other.failed;
        self.expired += other.expired;
        self.active += other.active;
        self.peak_active += other.peak_active;
    }
}

/// Answer-cache counters of a fused bridge: how often repeated queries
/// were served from the shard-local cache instead of re-querying the
/// legacy network. All zero on interpreted bridges and when the cache
/// is disabled ([`crate::EngineConfig::answer_ttl`] unset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered straight from the cache.
    pub hits: u64,
    /// Requests that went through full translation (lookup failed,
    /// entry expired, or the key was not yet cached).
    pub misses: u64,
    /// Legacy answers stored into the cache.
    pub insertions: u64,
    /// Entries evicted because their TTL had lapsed when touched.
    pub expirations: u64,
}

impl CacheStats {
    /// Fraction of cacheable requests served from the cache
    /// (`0.0` when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.expirations += other.expirations;
    }
}

/// Store-and-forward counters of a delay-tolerant bridge: what happened
/// to egress legs that found their link partitioned, closed by the pass
/// schedule, or saturated. All zero when store-and-forward is disabled
/// ([`crate::EngineConfig::store_forward`] unset).
///
/// Accounting invariant: every parked leg is eventually either replayed
/// (the link opened and the leg was retransmitted) or abandoned (its
/// session gave up after the retry budget, or was torn down with legs
/// still queued) — so `parked == replayed + abandoned` once no session
/// is live, and `replayed + abandoned <= parked` at every instant.
/// `overflow` counts legs *refused* at a full queue; they were never
/// parked, so they sit outside the balance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreForwardStats {
    /// Egress legs parked in a session queue instead of being sent.
    pub parked: u64,
    /// Parked legs retransmitted once their link opened.
    pub replayed: u64,
    /// Legs refused because the session's queue was at its bound.
    pub overflow: u64,
    /// Parked legs dropped when their session gave up or was torn down.
    pub abandoned: u64,
}

impl StoreForwardStats {
    /// The quiescent balance: with no live sessions, every parked leg
    /// was replayed or abandoned.
    pub fn is_settled(&self) -> bool {
        self.parked == self.replayed + self.abandoned
    }

    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &StoreForwardStats) {
        self.parked += other.parked;
        self.replayed += other.replayed;
        self.overflow += other.overflow;
        self.abandoned += other.abandoned;
    }
}

/// Lock-free session-lifecycle counters: the shard-local stats of a
/// sharded bridge all mirror into one shared instance, so aggregate
/// counters (and the true fleet-wide `peak_active`) never take a lock on
/// the per-message path.
#[derive(Debug, Default)]
pub struct AtomicConcurrency {
    started: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    active: AtomicU64,
    peak_active: AtomicU64,
}

impl AtomicConcurrency {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        AtomicConcurrency::default()
    }

    fn record_started(&self) {
        self.started.fetch_add(1, Ordering::Relaxed);
        let live = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_active.fetch_max(live, Ordering::Relaxed);
    }

    fn record_closed(&self, outcome: &AtomicU64) {
        outcome.fetch_add(1, Ordering::Relaxed);
        // Saturating decrement: a stray double-close must not wrap the
        // gauge to u64::MAX.
        let _ = self.active.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(1))
        });
    }

    /// A consistent-enough snapshot of the counters (each field is read
    /// atomically; the set is not sealed against concurrent updates).
    pub fn snapshot(&self) -> ConcurrencyStats {
        ConcurrencyStats {
            started: self.started.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            peak_active: self.peak_active.load(Ordering::Relaxed),
        }
    }
}

/// An exact count of everything recorded plus the most recent `N`
/// items.
#[derive(Debug, Clone)]
struct RecentLog<T, const N: usize> {
    total: u64,
    recent: VecDeque<T>,
}

impl<T, const N: usize> Default for RecentLog<T, N> {
    fn default() -> Self {
        RecentLog { total: 0, recent: VecDeque::new() }
    }
}

impl<T: Clone, const N: usize> RecentLog<T, N> {
    fn push(&mut self, item: T) {
        if self.recent.len() == N {
            self.recent.pop_front();
        }
        self.recent.push_back(item);
        self.total += 1;
    }

    /// Appends `other`'s count and its retained items (as if they had
    /// been recorded after this log's).
    fn merge(&mut self, other: &Self) {
        for item in &other.recent {
            self.push(item.clone());
        }
        self.total += other.total - other.recent.len() as u64;
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Completed sessions.
    sessions: RecentLog<SessionRecord, SESSION_WINDOW>,
    /// Summed translation time of every completed session, µs.
    translation_micros: u64,
    /// Messages that failed to parse/translate (dropped by the engine).
    errors: RecentLog<String, ERROR_WINDOW>,
    /// Session-lifecycle counters.
    concurrency: ConcurrencyStats,
    /// Answer-cache counters (fused bridges only).
    cache: CacheStats,
    /// Store-and-forward counters (delay-tolerant sessions only).
    store_forward: StoreForwardStats,
    /// Control-plane state: the owning engine version stopped taking
    /// fresh sessions (drain-then-swap in progress).
    draining: bool,
    /// Control-plane state: the owning engine version drained to zero
    /// live sessions and was reaped. Counters freeze at their final
    /// values — retirement never resets a ledger.
    retired: bool,
}

/// Shared handle onto a bridge's statistics; clone freely — the engine
/// keeps one end, the harness the other.
#[derive(Debug, Clone, Default)]
pub struct BridgeStats {
    inner: Arc<Mutex<Inner>>,
    /// Optional lock-free mirror of the lifecycle counters, shared by
    /// every shard of a sharded deployment.
    mirror: Option<Arc<AtomicConcurrency>>,
}

impl BridgeStats {
    /// Creates an empty stats handle.
    pub fn new() -> Self {
        BridgeStats::default()
    }

    /// Creates a stats handle that additionally mirrors every lifecycle
    /// transition into `mirror` with plain atomic adds — the shard-local
    /// end of a fleet-wide gauge.
    pub fn with_mirror(mirror: Arc<AtomicConcurrency>) -> Self {
        BridgeStats { inner: Arc::default(), mirror: Some(mirror) }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // The handle is only ever locked uncontended (one engine per
        // handle); recover from poisoning regardless.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a completed session.
    pub fn record_session(&self, started: SimTime, finished: SimTime) {
        let mut inner = self.lock();
        let record = SessionRecord { started, finished };
        inner.translation_micros += record.translation_time().as_micros();
        inner.sessions.push(record);
        inner.concurrency.completed += 1;
        inner.concurrency.active = inner.concurrency.active.saturating_sub(1);
        drop(inner);
        if let Some(mirror) = &self.mirror {
            mirror.record_closed(&mirror.completed);
        }
    }

    /// Records a session opening (the concurrency gauge rises).
    pub fn record_session_started(&self) {
        let mut inner = self.lock();
        inner.concurrency.started += 1;
        inner.concurrency.active += 1;
        inner.concurrency.peak_active = inner.concurrency.peak_active.max(inner.concurrency.active);
        drop(inner);
        if let Some(mirror) = &self.mirror {
            mirror.record_started();
        }
    }

    /// Records a session torn down after a compose/emit/⊨ failure (the
    /// failure itself is recorded separately via [`BridgeStats::record_error`]).
    pub fn record_session_failed(&self) {
        let mut inner = self.lock();
        inner.concurrency.failed += 1;
        inner.concurrency.active = inner.concurrency.active.saturating_sub(1);
        drop(inner);
        if let Some(mirror) = &self.mirror {
            mirror.record_closed(&mirror.failed);
        }
    }

    /// Records a session reaped by the idle-expiry timer.
    pub fn record_session_expired(&self) {
        let mut inner = self.lock();
        inner.concurrency.expired += 1;
        inner.concurrency.active = inner.concurrency.active.saturating_sub(1);
        drop(inner);
        if let Some(mirror) = &self.mirror {
            mirror.record_closed(&mirror.expired);
        }
    }

    /// The session-lifecycle counters.
    pub fn concurrency(&self) -> ConcurrencyStats {
        self.lock().concurrency
    }

    /// The answer-cache counters.
    pub fn cache(&self) -> CacheStats {
        self.lock().cache
    }

    /// Records a request served from the answer cache.
    pub fn record_cache_hit(&self) {
        self.lock().cache.hits += 1;
    }

    /// Records a cacheable request that needed full translation.
    pub fn record_cache_miss(&self) {
        self.lock().cache.misses += 1;
    }

    /// Records a legacy answer stored into the cache.
    pub fn record_cache_insertion(&self) {
        self.lock().cache.insertions += 1;
    }

    /// Records a cache entry evicted on TTL expiry.
    pub fn record_cache_expiration(&self) {
        self.lock().cache.expirations += 1;
    }

    /// The store-and-forward counters.
    pub fn store_forward(&self) -> StoreForwardStats {
        self.lock().store_forward
    }

    /// Records an egress leg parked instead of sent (closed or
    /// saturated link).
    pub fn record_leg_parked(&self) {
        self.lock().store_forward.parked += 1;
    }

    /// Records a parked leg retransmitted after its link opened.
    pub fn record_leg_replayed(&self) {
        self.lock().store_forward.replayed += 1;
    }

    /// Records a leg refused at a full session queue.
    pub fn record_queue_overflow(&self) {
        self.lock().store_forward.overflow += 1;
    }

    /// Records `count` parked legs dropped by a session that gave up or
    /// was torn down with its queue non-empty.
    pub fn record_legs_abandoned(&self, count: u64) {
        self.lock().store_forward.abandoned += count;
    }

    /// Records an engine-level error (message dropped).
    pub fn record_error(&self, description: impl Into<String>) {
        self.lock().errors.push(description.into());
    }

    /// Engine-level errors recorded so far (exact; [`BridgeStats::errors`]
    /// keeps only the most recent [`ERROR_WINDOW`] messages).
    pub fn error_count(&self) -> u64 {
        self.lock().errors.total
    }

    /// Marks the owning engine version as draining: it stopped taking
    /// fresh sessions and only finishes (or idle-expires) in-flight
    /// ones. Deployment state, not part of the lifecycle ledger.
    pub fn record_draining(&self) {
        self.lock().draining = true;
    }

    /// Marks the owning engine version as retired: it drained to zero
    /// live sessions and was reaped. Its counters freeze here — a swap
    /// must never reset or double-count a ledger.
    pub fn record_retired(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        inner.retired = true;
    }

    /// Whether the owning engine version is draining (or already
    /// retired).
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Whether the owning engine version drained out and was reaped.
    pub fn is_retired(&self) -> bool {
        self.lock().retired
    }

    /// The most recent completed sessions (at most [`SESSION_WINDOW`]),
    /// oldest first.
    pub fn sessions(&self) -> Vec<SessionRecord> {
        self.lock().sessions.recent.iter().copied().collect()
    }

    /// The most recent error messages (at most [`ERROR_WINDOW`]),
    /// oldest first.
    pub fn errors(&self) -> Vec<String> {
        self.lock().errors.recent.iter().cloned().collect()
    }

    /// Number of completed sessions (exact).
    pub fn session_count(&self) -> usize {
        self.lock().sessions.total as usize
    }

    /// Summed translation time of every completed session, in µs.
    pub fn translation_micros(&self) -> u64 {
        self.lock().translation_micros
    }

    /// Translation times of the most recent completed sessions (at
    /// most [`SESSION_WINDOW`]), oldest first.
    pub fn translation_times(&self) -> Vec<SimDuration> {
        self.lock().sessions.recent.iter().map(SessionRecord::translation_time).collect()
    }

    /// Asserts internal consistency of this handle: the lifecycle
    /// counters are balanced ([`ConcurrencyStats::assert_balanced`]),
    /// the completed-session log agrees with the `completed` counter and
    /// both logs stay within their windows.
    ///
    /// # Panics
    ///
    /// Panics (naming `context`) when either check fails.
    pub fn assert_consistent(&self, context: &str) {
        let concurrency = self.concurrency();
        concurrency.assert_balanced(context);
        assert_eq!(
            self.session_count() as u64,
            concurrency.completed,
            "{context}: completed-session records disagree with the completed counter"
        );
        {
            let inner = self.lock();
            assert!(
                inner.sessions.recent.len() <= SESSION_WINDOW
                    && inner.errors.recent.len() <= ERROR_WINDOW,
                "{context}: a stats log outgrew its window"
            );
        }
        // Answer-cache invariants: every hit completed a session, every
        // insertion came from a completed exchange, and only inserted
        // entries can expire.
        let cache = self.cache();
        assert!(
            cache.hits <= concurrency.completed,
            "{context}: {} cache hits exceed {} completed sessions",
            cache.hits,
            concurrency.completed
        );
        assert!(
            cache.insertions <= concurrency.completed,
            "{context}: {} cache insertions exceed {} completed sessions",
            cache.insertions,
            concurrency.completed
        );
        assert!(
            cache.expirations <= cache.insertions,
            "{context}: {} cache expirations exceed {} insertions",
            cache.expirations,
            cache.insertions
        );
        // Store-and-forward: resolved legs never exceed parked legs; at
        // quiescence (no active sessions) the balance is exact.
        let sf = self.store_forward();
        assert!(
            sf.replayed + sf.abandoned <= sf.parked,
            "{context}: {} replayed + {} abandoned legs exceed {} parked",
            sf.replayed,
            sf.abandoned,
            sf.parked
        );
        if concurrency.active == 0 {
            assert!(
                sf.is_settled(),
                "{context}: store-and-forward unsettled at quiescence: \
                 parked {} != replayed {} + abandoned {}",
                sf.parked,
                sf.replayed,
                sf.abandoned
            );
        }
    }

    /// Folds a snapshot of `other` into this handle: session and error
    /// logs are appended (counts exactly, records within the windows),
    /// lifecycle counters merged per [`ConcurrencyStats::merge`]. Used
    /// to aggregate per-shard stats into one fleet-wide report.
    pub fn merge_from(&self, other: &BridgeStats) {
        let (sessions, translation_micros, errors, concurrency, cache, store_forward) = {
            let other = other.lock();
            (
                other.sessions.clone(),
                other.translation_micros,
                other.errors.clone(),
                other.concurrency,
                other.cache,
                other.store_forward,
            )
        };
        let mut inner = self.lock();
        inner.sessions.merge(&sessions);
        inner.translation_micros += translation_micros;
        inner.errors.merge(&errors);
        inner.concurrency.merge(&concurrency);
        inner.cache.merge(&cache);
        inner.store_forward.merge(&store_forward);
    }
}

/// The statistics of a sharded deployment: one [`BridgeStats`] per
/// shard (each updated contention-free by its own engine) plus the
/// shared lock-free [`AtomicConcurrency`] gauge they all mirror into.
#[derive(Debug, Clone)]
pub struct ShardedStats {
    shards: Vec<BridgeStats>,
    gauge: Arc<AtomicConcurrency>,
}

impl ShardedStats {
    pub(crate) fn new(shards: Vec<BridgeStats>, gauge: Arc<AtomicConcurrency>) -> Self {
        ShardedStats { shards, gauge }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The stats handle of one shard.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &BridgeStats {
        &self.shards[shard]
    }

    /// The fleet-wide lifecycle counters, read lock-free from the shared
    /// gauge (exact global `peak_active` included).
    pub fn concurrency(&self) -> ConcurrencyStats {
        self.gauge.snapshot()
    }

    /// Folds every shard's snapshot into one fresh [`BridgeStats`].
    pub fn merged(&self) -> BridgeStats {
        let merged = BridgeStats::new();
        for shard in &self.shards {
            merged.merge_from(shard);
        }
        merged
    }

    /// The per-shard lifecycle counters summed (peaks add up, as in
    /// [`ConcurrencyStats::merge`]) without copying any log.
    pub fn concurrency_sum(&self) -> ConcurrencyStats {
        let mut total = ConcurrencyStats::default();
        for shard in &self.shards {
            total.merge(&shard.concurrency());
        }
        total
    }

    /// Completed sessions across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(BridgeStats::session_count).sum()
    }

    /// Summed translation time of every completed session across all
    /// shards, in µs.
    pub fn translation_micros(&self) -> u64 {
        self.shards.iter().map(BridgeStats::translation_micros).sum()
    }

    /// The most recent errors of every shard, shard by shard.
    pub fn errors(&self) -> Vec<String> {
        self.shards.iter().flat_map(BridgeStats::errors).collect()
    }

    /// Errors recorded by any shard (exact).
    pub fn error_count(&self) -> u64 {
        self.shards.iter().map(BridgeStats::error_count).sum()
    }

    /// Answer-cache counters summed across all shards (each shard's
    /// cache is private; only the counters aggregate).
    pub fn cache(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(&shard.cache());
        }
        total
    }

    /// Shards whose engine version is draining (or retired).
    pub fn draining_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.is_draining()).count()
    }

    /// Shards whose engine version drained out and was reaped.
    pub fn retired_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.is_retired()).count()
    }

    /// Store-and-forward counters summed across all shards.
    pub fn store_forward(&self) -> StoreForwardStats {
        let mut total = StoreForwardStats::default();
        for shard in &self.shards {
            total.merge(&shard.store_forward());
        }
        total
    }

    /// Translation times of every shard's most recent completed
    /// sessions.
    pub fn translation_times(&self) -> Vec<SimDuration> {
        self.shards.iter().flat_map(BridgeStats::translation_times).collect()
    }

    /// Asserts consistency of every shard's stats, of their merged sum
    /// and of the lock-free fleet gauge — the whole-deployment form of
    /// [`BridgeStats::assert_consistent`].
    ///
    /// # Panics
    ///
    /// Panics (naming `context` and the shard) when any check fails.
    pub fn assert_consistent(&self, context: &str) {
        for (index, shard) in self.shards.iter().enumerate() {
            shard.assert_consistent(&format!("{context} shard {index}"));
        }
        self.concurrency_sum().assert_balanced(&format!("{context} merged"));
        self.concurrency().assert_balanced(&format!("{context} gauge"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports_sessions() {
        let stats = BridgeStats::new();
        stats.record_session(SimTime::from_millis(10), SimTime::from_millis(350));
        stats.record_session(SimTime::from_millis(400), SimTime::from_millis(700));
        assert_eq!(stats.session_count(), 2);
        let times = stats.translation_times();
        assert_eq!(times[0], SimDuration::from_millis(340));
        assert_eq!(times[1], SimDuration::from_millis(300));
    }

    #[test]
    fn logs_keep_exact_counts_over_bounded_windows() {
        let stats = BridgeStats::new();
        let extra = 10u64;
        for i in 0..SESSION_WINDOW as u64 + extra {
            stats.record_session(SimTime::ZERO, SimTime::from_micros(i));
        }
        for i in 0..ERROR_WINDOW as u64 + extra {
            stats.record_error(format!("error {i}"));
        }
        assert_eq!(stats.session_count(), SESSION_WINDOW + extra as usize);
        let n = SESSION_WINDOW as u64 + extra;
        assert_eq!(stats.translation_micros(), n * (n - 1) / 2, "every session summed");
        let times = stats.translation_times();
        assert_eq!(times.len(), SESSION_WINDOW);
        assert_eq!(times[0], SimDuration::from_micros(extra), "the oldest fell off");
        assert_eq!(stats.error_count(), ERROR_WINDOW as u64 + extra);
        assert_eq!(stats.errors().len(), ERROR_WINDOW);
        assert_eq!(stats.errors()[0], format!("error {extra}"));

        // Merging adds counts exactly and keeps the windows bounded.
        let merged = BridgeStats::new();
        merged.merge_from(&stats);
        merged.merge_from(&stats);
        assert_eq!(merged.session_count(), 2 * stats.session_count());
        assert_eq!(merged.translation_micros(), 2 * stats.translation_micros());
        assert_eq!(merged.error_count(), 2 * stats.error_count());
        assert_eq!(merged.sessions().len(), SESSION_WINDOW);
        assert_eq!(merged.errors().len(), ERROR_WINDOW);
    }

    #[test]
    fn clones_share_state() {
        let stats = BridgeStats::new();
        let other = stats.clone();
        other.record_error("boom");
        assert_eq!(stats.errors(), vec!["boom"]);
    }

    #[test]
    fn concurrency_gauge_tracks_lifecycle() {
        let stats = BridgeStats::new();
        stats.record_session_started();
        stats.record_session_started();
        stats.record_session_started();
        let c = stats.concurrency();
        assert_eq!((c.started, c.active, c.peak_active), (3, 3, 3));
        stats.record_session(SimTime::ZERO, SimTime::from_millis(1));
        stats.record_session_failed();
        stats.record_session_expired();
        let c = stats.concurrency();
        assert_eq!(c.active, 0);
        assert_eq!(c.peak_active, 3);
        assert_eq!((c.completed, c.failed, c.expired), (1, 1, 1));
    }

    #[test]
    fn merged_counters_equal_the_sum_of_shard_counters() {
        // Three shard-local handles, all mirroring one atomic gauge.
        let gauge = Arc::new(AtomicConcurrency::new());
        let shards: Vec<BridgeStats> =
            (0..3).map(|_| BridgeStats::with_mirror(gauge.clone())).collect();
        for (i, shard) in shards.iter().enumerate() {
            for s in 0..=i as u64 {
                shard.record_session_started();
                shard.record_session(SimTime::ZERO, SimTime::from_millis(s + 1));
            }
        }
        shards[0].record_session_started();
        shards[0].record_session_failed();
        shards[2].record_session_started();
        shards[2].record_session_expired();
        shards[1].record_error("shard 1 parse error");

        // Lock-based fold.
        let merged = BridgeStats::new();
        let mut expected = ConcurrencyStats::default();
        for shard in &shards {
            merged.merge_from(shard);
            expected.merge(&shard.concurrency());
        }
        assert_eq!(merged.concurrency(), expected);
        assert_eq!(merged.session_count(), 1 + 2 + 3);
        assert_eq!(merged.errors(), vec!["shard 1 parse error"]);

        // Lock-free mirror: same totals (peak differs — the mirror
        // tracks the *global* gauge, the fold sums per-shard peaks).
        let live = gauge.snapshot();
        assert_eq!(live.started, expected.started);
        assert_eq!(live.completed, expected.completed);
        assert_eq!(live.failed, expected.failed);
        assert_eq!(live.expired, expected.expired);
        assert_eq!(live.active, 0);
    }

    #[test]
    fn balance_invariant_holds_through_every_transition_and_catches_drift() {
        let stats = BridgeStats::new();
        stats.concurrency().assert_balanced("empty");
        stats.record_session_started();
        stats.concurrency().assert_balanced("one active");
        stats.record_session(SimTime::ZERO, SimTime::from_millis(1));
        stats.record_session_started();
        stats.record_session_failed();
        stats.record_session_started();
        stats.record_session_expired();
        stats.assert_consistent("full lifecycle");
        // A hand-built drifted counter set is caught.
        let drifted = ConcurrencyStats { started: 5, completed: 2, ..ConcurrencyStats::default() };
        assert!(!drifted.is_balanced());
        let result = std::panic::catch_unwind(|| drifted.assert_balanced("drifted"));
        assert!(result.is_err(), "imbalance must panic");
    }

    #[test]
    fn store_forward_balance_is_enforced_at_quiescence() {
        let stats = BridgeStats::new();
        stats.record_session_started();
        stats.record_leg_parked();
        stats.record_leg_parked();
        stats.record_queue_overflow();
        // Mid-run: one leg still parked is fine while the session lives.
        stats.record_leg_replayed();
        let sf = stats.store_forward();
        assert_eq!((sf.parked, sf.replayed, sf.overflow, sf.abandoned), (2, 1, 1, 0));
        assert!(!sf.is_settled());
        stats.assert_consistent("active session may hold parked legs");
        // Teardown abandons the remaining leg; the balance settles.
        stats.record_legs_abandoned(1);
        stats.record_session_expired();
        assert!(stats.store_forward().is_settled());
        stats.assert_consistent("settled");
        // An unsettled quiescent handle is caught.
        let broken = BridgeStats::new();
        broken.record_leg_parked();
        let result = std::panic::catch_unwind(|| broken.assert_consistent("unsettled"));
        assert!(result.is_err(), "quiescent imbalance must panic");
    }

    #[test]
    fn atomic_mirror_tracks_global_peak_across_shards() {
        let gauge = Arc::new(AtomicConcurrency::new());
        let a = BridgeStats::with_mirror(gauge.clone());
        let b = BridgeStats::with_mirror(gauge.clone());
        a.record_session_started();
        b.record_session_started();
        a.record_session(SimTime::ZERO, SimTime::from_millis(1));
        b.record_session(SimTime::ZERO, SimTime::from_millis(1));
        // Each shard peaked at 1, but 2 sessions were live at once: only
        // the shared mirror sees it.
        assert_eq!(a.concurrency().peak_active, 1);
        assert_eq!(b.concurrency().peak_active, 1);
        assert_eq!(gauge.snapshot().peak_active, 2);
        assert_eq!(gauge.snapshot().active, 0);
    }
}
