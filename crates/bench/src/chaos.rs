//! The chaos conformance harness: named impairment profiles, the
//! quiescence-driven cell runner and the **liveness contract** the
//! matrix in `tests/chaos_matrix.rs` enforces over every
//! [`BridgeCase`] × profile × shard-count cell.
//!
//! The contract is Starlink's runtime-interoperability claim under a
//! misbehaving network: whatever the link does — drop, duplicate,
//! reorder, jitter, corrupt, partition — every session the engine opens
//! ends in exactly one of `completed` / `failed` / `expired`, the engine
//! never wedges (`active == 0` once the run's virtual horizon passes),
//! no reply is cross-delivered, and [`starlink_core::BridgeStats`] stays
//! internally consistent on every shard. Everything is a deterministic
//! function of `(seed, profile)`: a failing cell prints the exact
//! environment-variable repro command along with the tail of its
//! dispatch-boundary log.

use crate::{expected_discovery_url, run_sharded_case, ShardedRun, ShardedWorkload};
use starlink_core::{CacheStats, DeployState, ShardedStats, StoreForward, StoreForwardStats};
use starlink_net::{Impairments, SimDuration, SimTime};
use starlink_protocols::bridges::BridgeCase;

/// A named impairment profile of the conformance matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosProfile {
    /// Profile name (stable: used in repro commands and CI filters).
    pub name: &'static str,
    /// The knobs installed in every shard's simulation.
    pub impairments: Impairments,
    /// Whether every client must complete (profiles without loss,
    /// corruption or partitions cannot legitimately lose a session —
    /// duplication and reordering merely add noise).
    pub expect_client_completion: bool,
    /// Whether the engines must additionally stay clean: zero recorded
    /// errors and exactly one session per client (only the control row —
    /// duplicates are legitimately recorded-and-dropped).
    pub expect_clean_engines: bool,
    /// Shared per-link capacity in bytes/sec installed in every shard's
    /// simulation (`0` — the default — keeps the bandwidth model off).
    pub link_bandwidth: u64,
    /// Connectivity-window length of the pass schedule
    /// ([`SimDuration::ZERO`] — the default — installs no schedule).
    pub pass_window: SimDuration,
    /// Slots taking turns on the pass schedule (`<= 1` installs none).
    pub pass_slots: u32,
    /// Store-and-forward policy handed to every engine shard (`None` —
    /// the default — keeps the fail-fast engines).
    pub store_forward: Option<StoreForward>,
    /// Driver-level client retransmission period in virtual
    /// milliseconds: an unresolved client re-sends its request every
    /// this-many driver iterations, modelling a legacy stack's own
    /// retry loop (`0` — the default — sends once). Pass-schedule
    /// profiles need it: a request launched into a closed window is
    /// dropped on the floor, exactly like a real satellite uplink.
    pub client_retry_ms: u64,
    /// Drain-then-swap the bridge to a second registry-gated version
    /// once half the clients have started (`false` — the default —
    /// serves one version for the whole run). The contract then also
    /// enforces the swap clauses: v1 retired, ledgers frozen not reset,
    /// zero unrouted traffic.
    pub swap_mid_run: bool,
}

impl ChaosProfile {
    /// A profile with every knob inert: no impairments, no bandwidth
    /// cap, no pass schedule, no store-and-forward, no client retries.
    /// Constructors override what they exercise, so adding a knob never
    /// silently changes an existing profile.
    fn inert(name: &'static str) -> Self {
        ChaosProfile {
            name,
            impairments: Impairments::none(),
            expect_client_completion: true,
            expect_clean_engines: false,
            link_bandwidth: 0,
            pass_window: SimDuration::ZERO,
            pass_slots: 1,
            store_forward: None,
            client_retry_ms: 0,
            swap_mid_run: false,
        }
    }

    /// No impairment at all — the control row: must behave exactly like
    /// the pre-chaos harness (full completion, clean engines).
    pub fn lossless() -> Self {
        ChaosProfile { expect_clean_engines: true, ..Self::inert("lossless") }
    }

    /// 10% independent loss on every link traversal.
    pub fn lossy10() -> Self {
        ChaosProfile {
            impairments: Impairments { drop_permille: 100, ..Impairments::none() },
            expect_client_completion: false,
            ..Self::inert("lossy10")
        }
    }

    /// Duplication plus bounded reordering and jitter — no loss, so
    /// every session must still complete (duplicates may only add
    /// recorded-and-dropped errors).
    pub fn dup_reorder() -> Self {
        ChaosProfile {
            impairments: Impairments {
                duplicate_permille: 200,
                reorder_permille: 300,
                reorder_window: SimDuration::from_millis(2),
                jitter: SimDuration::from_micros(500),
                ..Impairments::none()
            },
            // No loss anywhere: every client still completes, but
            // rejected duplicates legitimately land in the error log.
            ..Self::inert("dup_reorder")
        }
    }

    /// Byte corruption plus spontaneous host-pair partitions that heal
    /// after a window.
    pub fn corrupt_partition_heal() -> Self {
        ChaosProfile {
            impairments: Impairments {
                corrupt_permille: 80,
                partition_permille: 15,
                partition_window: SimDuration::from_millis(8),
                ..Impairments::none()
            },
            expect_client_completion: false,
            ..Self::inert("corrupt_partition_heal")
        }
    }

    /// Satellite-style connectivity windows: two slots take turns on
    /// the uplink — clients reach the bridge only in even windows, the
    /// legacy service only in odd ones — so **no single window fits a
    /// whole session**. Delivery takes three passes: ingress, query +
    /// legacy response, reply. Store-and-forward parks the blocked legs
    /// and the clients' own retransmission loop covers requests
    /// launched into a closed window; every client must still complete.
    pub fn pass_schedule() -> Self {
        ChaosProfile {
            pass_window: SimDuration::from_millis(25),
            pass_slots: 2,
            store_forward: Some(StoreForward {
                queue_bound: 8,
                retry_interval: SimDuration::from_millis(4),
                max_retries: 32,
                saturation_bytes: 0,
            }),
            client_retry_ms: 10,
            ..Self::inert("pass_schedule")
        }
    }

    /// Shared-bandwidth contention: every link carries 1 MB/s split
    /// fairly across its concurrent transfers, so the bridge↔service
    /// uplink — which funnels every forward query and legacy response —
    /// saturates under load: waves land 16 deep, so each burst piles
    /// kilobytes onto a link that moves one byte per microsecond, while
    /// a full 50-client cell of the fattest payloads (the ~500-byte WSD
    /// SOAP responses) still drains well inside the idle timeout. Once
    /// the egress backlog passes 384 bytes, store-and-forward holds
    /// further legs back instead of piling onto the fluid and replays
    /// them as the backlog drains. Nothing is lost, only delayed: every
    /// client must complete.
    pub fn contended_links() -> Self {
        ChaosProfile {
            link_bandwidth: 1_000_000,
            store_forward: Some(StoreForward {
                queue_bound: 8,
                retry_interval: SimDuration::from_millis(2),
                max_retries: 64,
                saturation_bytes: 384,
            }),
            ..Self::inert("contended_links")
        }
    }

    /// Live redeployment under loss: 10% drop on every link *and* a
    /// drain-then-swap of the serving bridge once half the clients have
    /// started. Sessions opened before the swap finish (or idle-expire)
    /// on the draining v1; later clients route to v2; v1 must retire on
    /// every shard with its ledger frozen, and no fresh traffic may
    /// fall into an active-version gap.
    pub fn live_redeploy() -> Self {
        ChaosProfile {
            impairments: Impairments { drop_permille: 100, ..Impairments::none() },
            expect_client_completion: false,
            swap_mid_run: true,
            ..Self::inert("live_redeploy")
        }
    }

    /// The seven rows of the conformance matrix.
    pub fn matrix() -> [ChaosProfile; 7] {
        [
            ChaosProfile::lossless(),
            ChaosProfile::lossy10(),
            ChaosProfile::dup_reorder(),
            ChaosProfile::corrupt_partition_heal(),
            ChaosProfile::pass_schedule(),
            ChaosProfile::contended_links(),
            ChaosProfile::live_redeploy(),
        ]
    }

    /// Looks a profile up by its stable name (repro commands).
    pub fn by_name(name: &str) -> Option<ChaosProfile> {
        ChaosProfile::matrix().into_iter().find(|p| p.name == name)
    }

    /// Whether the profile corrupts payloads: a garbled reply is then
    /// indistinguishable from a cross-delivered one at the client, so
    /// per-reply id checks are only enforced on non-corrupting profiles.
    pub fn corrupting(&self) -> bool {
        self.impairments.corrupt_permille > 0
    }
}

/// One cell of the conformance matrix.
#[derive(Debug, Clone, Copy)]
pub struct ChaosCell {
    /// The bridge case driven.
    pub case: BridgeCase,
    /// Engine shard count.
    pub shards: usize,
    /// Interleaved wire-level clients.
    pub clients: usize,
    /// The seed (together with the profile, it determines the run
    /// byte-for-byte).
    pub seed: u64,
}

/// The engine idle timeout chaos cells run with: long enough for every
/// fast-calibration legacy exchange, short enough that stalled sessions
/// are reaped well inside the virtual horizon.
pub const CHAOS_IDLE_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// The virtual quiescence bound of a cell: time to start every wave
/// (one per virtual millisecond), two idle windows (expiry timers re-arm
/// once when activity raced the first timer), and a settle margin for
/// in-flight deferrals.
pub fn chaos_horizon(clients: usize, wave: usize) -> SimTime {
    let start_ms = (clients as u64).div_ceil(wave.max(1) as u64) + 1;
    SimTime::from_millis(start_ms + 2 * CHAOS_IDLE_TIMEOUT.as_millis() + 60)
}

/// Runs one matrix cell: `cell.clients` wire-level clients through a
/// [`crate::sharded`] deployment whose every shard simulation runs under
/// `profile`, driving until every client completed or the virtual
/// horizon passed. Nothing is asserted — pair with
/// [`assert_liveness_contract`].
pub fn run_chaos_cell(cell: ChaosCell, profile: &ChaosProfile) -> ShardedRun {
    // Swap cells spread the client starts over several waves so part of
    // the population starts before the mid-run swap (and drains on v1)
    // and the rest starts after it (and lands on v2).
    let wave = if profile.swap_mid_run { (cell.clients / 4).max(1) } else { 16 };
    let mut workload = ShardedWorkload::new(cell.shards, cell.clients);
    workload.seed = cell.seed;
    workload.wave = wave;
    workload.impairments = profile.impairments;
    workload.idle_timeout = CHAOS_IDLE_TIMEOUT;
    let mut horizon = chaos_horizon(cell.clients, wave);
    if profile.pass_window > SimDuration::ZERO && profile.pass_slots > 1 {
        // Pass-schedule cells wait on connectivity windows, not just
        // latency: a session needs up to one full rotation to land its
        // request plus one window per store-and-forward leg, and the
        // stragglers' idle expiries follow. Budget two rotations plus
        // the leg windows on top of the plain horizon.
        let rotation = profile.pass_window.saturating_mul(u64::from(profile.pass_slots));
        horizon = horizon + rotation.saturating_mul(2) + profile.pass_window.saturating_mul(4);
    }
    workload.virtual_horizon = Some(horizon);
    workload.log_boundary = true;
    workload.link_bandwidth = profile.link_bandwidth;
    workload.pass_window = profile.pass_window;
    workload.pass_slots = profile.pass_slots;
    workload.store_forward = profile.store_forward;
    workload.client_retry_ms = profile.client_retry_ms;
    // On fusable cases the answer cache runs in every cell, under
    // every impairment profile: all clients of a cell ask for the same
    // service, so once one exchange completes the rest are duplicate
    // queries — exactly the traffic whose cached replies must still
    // obey drops, corruption and partitions. Correlated routing is
    // what lets the cache key normalize transaction ids out; the
    // UPnP-chain cases have no transaction id to correlate on and stay
    // on address routing with the cache off (the contract checks their
    // counters stay zero).
    if cell.case.fusable() {
        workload.correlated = true;
        workload.answer_ttl = Some(cell.case.answer_ttl(&workload.calibration));
    }
    if profile.swap_mid_run {
        workload.swap_at_client = (cell.clients / 2).max(1);
    }
    run_sharded_case(cell.case, workload)
}

/// A deterministic digest of a chaos run: everything observable that
/// must be a pure function of `(seed, profile)` — per-client outcomes
/// (wall-clock latency excluded), fleet and per-shard counters, error
/// logs and the full dispatch-boundary log. Two runs of the same cell
/// and profile must produce byte-identical digests.
pub fn deterministic_digest(run: &ShardedRun) -> String {
    let mut out = String::new();
    out.push_str(&format!("case {} shards {}\n", run.case.number(), run.shards));
    for outcome in &run.outcomes {
        out.push_str(&format!(
            "client {} shard {} url {:?} id_ok {} garbled {}\n",
            outcome.host, outcome.shard, outcome.url, outcome.id_ok, outcome.garbled
        ));
    }
    let c = run.stats.concurrency();
    out.push_str(&format!(
        "gauge started {} completed {} failed {} expired {} active {}\n",
        c.started, c.completed, c.failed, c.expired, c.active
    ));
    let cache = run.stats.cache();
    out.push_str(&format!(
        "cache hits {} misses {} insertions {} expirations {}\n",
        cache.hits, cache.misses, cache.insertions, cache.expirations
    ));
    let sf = run.stats.store_forward();
    out.push_str(&format!(
        "store-forward parked {} replayed {} overflow {} abandoned {}\n",
        sf.parked, sf.replayed, sf.overflow, sf.abandoned
    ));
    out.push_str(&format!("unrouted {}\n", run.unrouted));
    if let Some(swap) = &run.swap {
        let old = swap.old.stats().concurrency();
        let new = swap.new.stats().concurrency();
        out.push_str(&format!(
            "swap at {} v{} -> v{} old {}/{}/{}/{} new {}/{}/{}/{} old_state {}\n",
            swap.at_iteration,
            swap.old.version(),
            swap.new.version(),
            old.started,
            old.completed,
            old.failed,
            old.expired,
            new.started,
            new.completed,
            new.failed,
            new.expired,
            swap.old.state()
        ));
    }
    for shard in 0..run.stats.shard_count() {
        let s = run.stats.shard(shard).concurrency();
        let sc = run.stats.shard(shard).cache();
        out.push_str(&format!(
            "shard {shard} started {} completed {} failed {} expired {} active {} \
             cache {}/{}/{}/{}\n",
            s.started,
            s.completed,
            s.failed,
            s.expired,
            s.active,
            sc.hits,
            sc.misses,
            sc.insertions,
            sc.expirations
        ));
    }
    for error in run.stats.errors() {
        out.push_str(&format!("error {error}\n"));
    }
    for line in &run.boundary_log {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The last `n` lines of a failure-dump source (boundary log, trace
/// lines) joined back into one block — shared by every chaos failure
/// path so dumps stay uniform.
pub fn tail<S: AsRef<str>>(lines: &[S], n: usize) -> String {
    let start = lines.len().saturating_sub(n);
    lines[start..].iter().map(AsRef::as_ref).collect::<Vec<_>>().join("\n")
}

/// Checks the liveness contract, returning every violation instead of
/// stopping at the first.
pub fn check_liveness_contract(run: &ShardedRun, profile: &ChaosProfile) -> Vec<String> {
    let mut violations = Vec::new();
    let clients = run.outcomes.len();
    let completed_clients = run.completed();
    // Every version's ledger is checked; the fleet view for the
    // client-facing clauses is their sum (a swap run serves sessions
    // from both versions).
    let versions: Vec<(&'static str, &ShardedStats)> = match &run.swap {
        Some(swap) => vec![("v1 ", &run.stats), ("v2 ", swap.new.stats())],
        None => vec![("", &run.stats)],
    };
    let mut gauge = run.stats.concurrency();
    if let Some(swap) = &run.swap {
        gauge.merge(&swap.new.stats().concurrency());
    }

    // 1. No wedged sessions, anywhere: once the horizon passed, every
    //    session the engine ever opened is in a terminal bucket — on
    //    every version of every shard.
    if gauge.active != 0 {
        violations
            .push(format!("{} sessions still active (wedged) after the horizon", gauge.active));
    }
    if !gauge.is_balanced() {
        violations.push(format!(
            "fleet gauge unbalanced: started {} != completed {} + failed {} + expired {} + active {}",
            gauge.started, gauge.completed, gauge.failed, gauge.expired, gauge.active
        ));
    }
    if run.unrouted != 0 {
        violations.push(format!(
            "{} fresh inputs dropped unrouted (an active-version gap)",
            run.unrouted
        ));
    }

    for (label, stats) in &versions {
        // 2. Per-shard stats internally consistent, answer-cache counters
        //    included: hits and insertions never exceed completed sessions,
        //    only inserted entries expire, and a non-fusable case records
        //    no cache traffic at all.
        let mut cache_sum = CacheStats::default();
        for shard in 0..stats.shard_count() {
            let stats = stats.shard(shard);
            let c = stats.concurrency();
            if !c.is_balanced() {
                violations.push(format!("{label}shard {shard} counters unbalanced: {c:?}"));
            }
            if c.active != 0 {
                violations.push(format!("{label}shard {shard}: {} sessions wedged", c.active));
            }
            if stats.session_count() as u64 != c.completed {
                violations.push(format!(
                    "{label}shard {shard}: {} session records vs completed counter {}",
                    stats.session_count(),
                    c.completed
                ));
            }
            let cache = stats.cache();
            cache_sum.merge(&cache);
            // Fail-fast engines only touch the cache on sessions that then
            // complete. A store-and-forward engine can insert the translated
            // answer (or serve a hit) and still *fail* the session when the
            // parked reply leg exhausts its retries — the knowledge is real
            // even though the delivery wasn't — so there the bound is the
            // sessions ever started, not the completed ones.
            let cache_bound = if profile.store_forward.is_some() { c.started } else { c.completed };
            if cache.hits > cache_bound {
                violations.push(format!(
                    "{label}shard {shard}: {} cache hits exceed {} bounding sessions",
                    cache.hits, cache_bound
                ));
            }
            if cache.insertions > cache_bound {
                violations.push(format!(
                    "{label}shard {shard}: {} cache insertions exceed {} bounding sessions",
                    cache.insertions, cache_bound
                ));
            }
            if cache.expirations > cache.insertions {
                violations.push(format!(
                    "{label}shard {shard}: {} cache expirations exceed {} insertions",
                    cache.expirations, cache.insertions
                ));
            }
            if !run.case.fusable() && cache != CacheStats::default() {
                violations.push(format!(
                    "{label}shard {shard}: cache counters {cache:?} on non-fusable case {}",
                    run.case.number()
                ));
            }
        }
        let merged = stats.merged().concurrency();
        if !merged.is_balanced() {
            violations.push(format!("{label}merged shard counters unbalanced: {merged:?}"));
        }
        let fleet_cache = stats.cache();
        if fleet_cache != cache_sum {
            violations.push(format!(
                "{label}fleet cache counters {fleet_cache:?} disagree with per-shard sum {cache_sum:?}"
            ));
        }

        // 2b. Store-and-forward balance at quiescence: with no session left
        //     active, every leg ever parked was either replayed or
        //     abandoned, on every shard and fleet-wide; an engine without
        //     the policy must record zero store-and-forward traffic.
        let mut sf_sum = StoreForwardStats::default();
        for shard in 0..stats.shard_count() {
            let sf = stats.shard(shard).store_forward();
            sf_sum.merge(&sf);
            if !sf.is_settled() {
                violations.push(format!(
                    "{label}shard {shard}: store-and-forward unsettled at quiescence: \
                     parked {} != replayed {} + abandoned {}",
                    sf.parked, sf.replayed, sf.abandoned
                ));
            }
            if profile.store_forward.is_none() && sf != StoreForwardStats::default() {
                violations.push(format!(
                    "{label}shard {shard}: store-and-forward counters {sf:?} without a policy"
                ));
            }
        }
        let fleet_sf = stats.store_forward();
        if fleet_sf != sf_sum {
            violations.push(format!(
                "{label}fleet store-and-forward counters {fleet_sf:?} disagree with per-shard sum {sf_sum:?}"
            ));
        }
    }

    // 3. Every client that observed a decoded reply maps onto a
    //    completed engine session (replies are only emitted by sessions
    //    that then complete).
    if (completed_clients as u64) > gauge.completed {
        violations.push(format!(
            "{completed_clients} clients saw replies but only {} sessions completed",
            gauge.completed
        ));
    }

    // 4. No cross-delivered replies: on non-corrupting profiles a
    //    decoded reply must carry the receiving client's own transaction
    //    id and the expected URL (corruption can garble either without
    //    any engine fault, so those profiles only check liveness).
    if !profile.corrupting() {
        for (index, outcome) in run.outcomes.iter().enumerate() {
            if let Some(url) = &outcome.url {
                if url != expected_discovery_url(run.case) {
                    violations
                        .push(format!("client {index} ({}) got wrong URL {url:?}", outcome.host));
                }
                if !outcome.id_ok {
                    violations.push(format!(
                        "client {index} ({}) got a reply carrying another session's id",
                        outcome.host
                    ));
                }
            }
            if outcome.garbled > 0 {
                violations.push(format!(
                    "client {index} ({}) saw {} undecodable replies without corruption",
                    outcome.host, outcome.garbled
                ));
            }
        }
    }

    // 5. Profiles without loss must complete every client; the control
    //    row additionally requires clean engines.
    if profile.expect_client_completion && completed_clients != clients {
        violations.push(format!(
            "{completed_clients}/{clients} clients completed under {}",
            profile.name
        ));
    }
    if profile.expect_clean_engines {
        if !run.stats.errors().is_empty() {
            violations.push(format!(
                "engine errors under {}: {:?}",
                profile.name,
                run.stats.errors()
            ));
        }
        if gauge.started != clients as u64 {
            violations.push(format!(
                "{} sessions started for {clients} clients under {}",
                gauge.started, profile.name
            ));
        }
    }

    // 6. Counter monotonicity: the final numbers never fall below the
    //    mid-run snapshot (the exact error count and the lifecycle
    //    counters only ever increment).
    if let Some((mid, mid_errors)) = &run.mid_snapshot {
        let final_errors = run.stats.error_count();
        for (name, before, after) in [
            ("started", mid.started, gauge.started),
            ("completed", mid.completed, gauge.completed),
            ("failed", mid.failed, gauge.failed),
            ("expired", mid.expired, gauge.expired),
            ("errors", *mid_errors, final_errors),
        ] {
            if after < before {
                violations.push(format!("counter {name} went backwards: {before} -> {after}"));
            }
        }
    }

    // 7. Swap clauses: the drained version retired on every shard, both
    //    versions actually served, and v1's ledger only moved forward
    //    from the swap point — frozen at retirement, never reset.
    if let Some(swap) = &run.swap {
        if swap.old.state() != DeployState::Retired {
            violations.push(format!(
                "v1 not retired after the horizon: state {}, {} shards draining, {} retired",
                swap.old.state(),
                swap.old.stats().draining_shards(),
                swap.old.stats().retired_shards()
            ));
        }
        let old = swap.old.stats().concurrency();
        let new = swap.new.stats().concurrency();
        if old.started == 0 {
            violations.push("v1 never started a session before the swap".into());
        }
        if new.started == 0 {
            violations.push("v2 never started a session after the swap".into());
        }
        let pre = &swap.pre_swap;
        for (name, before, after) in [
            ("started", pre.started, old.started),
            ("completed", pre.completed, old.completed),
            ("failed", pre.failed, old.failed),
            ("expired", pre.expired, old.expired),
        ] {
            if after < before {
                violations.push(format!(
                    "v1 counter {name} fell across the swap: {before} -> {after} (ledger reset)"
                ));
            }
        }
    } else if profile.swap_mid_run {
        violations.push("profile demands a mid-run swap but none was recorded".into());
    }

    violations
}

/// Asserts [`check_liveness_contract`]; a violation panics with the full
/// reproduction recipe — `(seed, profile)`, the one-command env-var
/// repro line and the tail of the dispatch-boundary log.
///
/// # Panics
///
/// Panics when the contract is violated.
pub fn assert_liveness_contract(run: &ShardedRun, profile: &ChaosProfile, seed: u64) {
    let violations = check_liveness_contract(run, profile);
    if violations.is_empty() {
        return;
    }
    let tail_len = 60.min(run.boundary_log.len());
    let tail = tail(&run.boundary_log, 60);
    let gauge = run.stats.concurrency();
    panic!(
        "chaos liveness contract violated\n\
         cell: case {} ({}), {} shards, {} clients, seed {seed}, profile {} ({:?})\n\
         violations:\n  - {}\n\
         counters: {gauge:?}\n\
         errors ({}): {:?}\n\
         reproduce with:\n  CHAOS_CASE={} CHAOS_PROFILE={} CHAOS_SEED={seed} CHAOS_SHARDS={} \
         CHAOS_CLIENTS={} cargo test -q --test chaos_matrix repro_cell -- --nocapture\n\
         boundary log tail ({tail_len} of {} lines):\n{tail}",
        run.case.number(),
        run.case.name(),
        run.shards,
        run.outcomes.len(),
        profile.name,
        profile.impairments,
        violations.join("\n  - "),
        run.stats.errors().len(),
        run.stats.errors(),
        run.case.number(),
        profile.name,
        run.shards,
        run.outcomes.len(),
        run.boundary_log.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_stable_names_and_lookup() {
        for profile in ChaosProfile::matrix() {
            assert_eq!(ChaosProfile::by_name(profile.name), Some(profile));
        }
        assert!(ChaosProfile::by_name("nope").is_none());
        assert!(ChaosProfile::lossless().impairments.is_inert());
        assert!(!ChaosProfile::lossy10().impairments.is_inert());
        assert!(ChaosProfile::corrupt_partition_heal().corrupting());
        assert!(!ChaosProfile::dup_reorder().corrupting());
    }

    #[test]
    fn lossless_cell_satisfies_the_contract_and_the_strict_checks() {
        let cell =
            ChaosCell { case: BridgeCase::SlpToBonjour, shards: 2, clients: 8, seed: 0xC4A0 };
        let profile = ChaosProfile::lossless();
        let run = run_chaos_cell(cell, &profile);
        assert_liveness_contract(&run, &profile, cell.seed);
        run.assert_isolated();
    }

    #[test]
    fn lossy_cell_never_wedges() {
        let cell = ChaosCell { case: BridgeCase::SlpToBonjour, shards: 2, clients: 8, seed: 1 };
        let profile = ChaosProfile::lossy10();
        let run = run_chaos_cell(cell, &profile);
        assert_liveness_contract(&run, &profile, cell.seed);
    }

    #[test]
    fn pass_schedule_cell_delivers_across_passes() {
        let cell = ChaosCell { case: BridgeCase::SlpToBonjour, shards: 2, clients: 6, seed: 2 };
        let profile = ChaosProfile::pass_schedule();
        let run = run_chaos_cell(cell, &profile);
        assert_liveness_contract(&run, &profile, cell.seed);
        // The schedule must have actually forced store-and-forward: no
        // single window fits a whole session, so legs parked and were
        // replayed on a later pass.
        let sf = run.stats.store_forward();
        assert!(sf.parked > 0, "no leg ever parked under the pass schedule: {sf:?}");
        assert!(sf.replayed > 0, "no parked leg was ever replayed: {sf:?}");
    }

    #[test]
    fn live_redeploy_cell_swaps_without_wedging_or_unrouted_traffic() {
        let cell = ChaosCell { case: BridgeCase::SlpToBonjour, shards: 2, clients: 12, seed: 4 };
        let profile = ChaosProfile::live_redeploy();
        let run = run_chaos_cell(cell, &profile);
        assert_liveness_contract(&run, &profile, cell.seed);
        let swap = run.swap.as_ref().expect("the profile swaps mid-run");
        assert_eq!(swap.old.state(), DeployState::Retired);
        assert_eq!(run.unrouted, 0);
        // Both versions served: the ledger split is part of the digest,
        // so determinism tests pin it per (seed, profile).
        assert!(swap.old.stats().concurrency().started > 0);
        assert!(swap.new.stats().concurrency().started > 0);
    }

    #[test]
    fn contended_links_cell_completes_under_saturation() {
        let cell = ChaosCell { case: BridgeCase::SlpToBonjour, shards: 1, clients: 12, seed: 3 };
        let profile = ChaosProfile::contended_links();
        let run = run_chaos_cell(cell, &profile);
        assert_liveness_contract(&run, &profile, cell.seed);
    }
}
