//! Wire-level multi-client driver for the sharded bridge runtime.
//!
//! The simulator-based harnesses ([`crate::run_concurrent_clients`])
//! host legacy *actors* next to the engine inside one `SimNet` — which
//! is single-threaded by construction, so it can never show shard
//! scaling. This driver instead plays the legacy clients **at the wire
//! level** from outside: it encodes native request bytes (the same
//! bytes real stacks emit), pushes them through
//! [`ShardedBridge::dispatch`]'s hash-pinned ingress exactly like a
//! socket gateway would, and decodes the replies each client gets back.
//! Each shard's private simulation hosts the engine shard plus one
//! target-side service instance.
//!
//! All twelve [`BridgeCase`]s are covered, including the UPnP-source
//! cases whose clients follow their SSDP 200 OK with a TCP `GET` of the
//! description document (carried over the shard's external-TCP
//! boundary), and the WS-Discovery cases whose clients match replies by
//! uuid (`RelatesTo` must echo the probe's own `MessageID`).

use crate::{BRIDGE, SERVICE};
use fxhash::FxHashMap;
use starlink_core::{
    deploy_commands, swap_commands, undeploy_commands, BridgeRegistry, ConcurrencyStats,
    DeployedBridge, EngineConfig, ShardInput, ShardOutput, ShardedBridge, ShardedStats, Starlink,
    StoreForward,
};
use starlink_net::{
    Bytes, Datagram, Impairments, LatencyModel, PassSchedule, SimAddr, SimDuration, SimTime,
};
use starlink_protocols::{
    bridges::{self, BridgeCase, Family},
    http, mdns, slp, ssdp, wsd, Calibration,
};
use std::time::{Duration, Instant};

const SLP_TYPE: &str = "service:printer";
const UPNP_TYPE: &str = "urn:schemas-upnp-org:service:printer:1";
const DNS_TYPE: &str = "_printer._tcp.local";
pub(crate) const WSD_TYPE: &str = "dn:printer";

/// Parameters of one sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ShardedWorkload {
    /// Number of engine shards (worker threads).
    pub shards: usize,
    /// Number of wire-level clients, each driving one session.
    pub clients: usize,
    /// Seed for the per-shard simulations (`seed + shard`).
    pub seed: u64,
    /// Legacy-stack delay model for the in-shard service actors.
    pub calibration: Calibration,
    /// Replace each shard's link latency with zero — saturation mode:
    /// sustained throughput then measures engine compute, not modelled
    /// waits.
    pub instant_network: bool,
    /// Sessions started per driver iteration (pipelining depth control).
    pub wave: usize,
    /// Wall-clock safety cap on the whole run.
    pub timeout: Duration,
    /// Impairment profile installed in every shard's simulation (default
    /// inert — throughput/correctness runs are untouched).
    pub impairments: Impairments,
    /// Engine idle-expiry timeout. Chaos runs shorten it so stalled
    /// sessions (dropped datagrams, partitioned peers) are reaped within
    /// the run's virtual horizon.
    pub idle_timeout: SimDuration,
    /// Virtual-time cap: the drive loop stops once the shard clocks pass
    /// this point even with sessions unresolved — the quiescence bound
    /// chaos runs use. `None` (default) keeps the original behaviour:
    /// run until every client completes (or the wall-clock timeout).
    pub virtual_horizon: Option<SimTime>,
    /// Record a deterministic log of every input/output crossing the
    /// dispatch boundary (virtual timestamps only): the evidence chaos
    /// failure dumps and determinism tests compare.
    pub log_boundary: bool,
    /// Install the case-study [`bridges::default_correlator`] so
    /// sessions key on protocol transaction ids (required for the
    /// answer cache to normalize ids out of its keys).
    pub correlated: bool,
    /// Enable the shard-local answer cache with this TTL: duplicate
    /// queries (same fields modulo transaction id) are served from the
    /// shard's cache without re-translating.
    pub answer_ttl: Option<SimDuration>,
    /// Pin the engines to the interpreted path even when the case
    /// would fuse — the baseline side of fused-vs-interpreted runs.
    pub force_interpreted: bool,
    /// Shared per-link capacity in bytes/sec installed in every shard's
    /// simulation (`0` — the default — keeps the bandwidth model off).
    pub link_bandwidth: u64,
    /// Connectivity-window length of the per-shard [`PassSchedule`]:
    /// the bridge is the always-reachable hub, the service sits in slot
    /// 1, clients (external hosts included) in slot 0.
    /// [`SimDuration::ZERO`] — the default — installs no schedule.
    pub pass_window: SimDuration,
    /// Slots taking turns on the pass schedule (`<= 1` installs none).
    pub pass_slots: u32,
    /// Store-and-forward policy handed to every engine shard (`None` —
    /// the default — keeps the fail-fast engines).
    pub store_forward: Option<StoreForward>,
    /// Driver-level retransmission period in virtual milliseconds: an
    /// unresolved client re-sends its request every this-many driver
    /// iterations (`0` — the default — sends once).
    pub client_retry_ms: u64,
    /// Live redeployment trigger: once the serving version has *started*
    /// this many sessions, deploy a second bridge version through the
    /// registry and drain-then-swap every shard onto it mid-traffic.
    /// Earlier clients finish on v1, later ones route to v2. `0` — the
    /// default — never swaps.
    pub swap_at_client: usize,
}

impl ShardedWorkload {
    /// A workload with test-friendly defaults (fast calibration,
    /// modelled link latency, waves of 64).
    pub fn new(shards: usize, clients: usize) -> Self {
        ShardedWorkload {
            shards,
            clients,
            seed: 7,
            calibration: Calibration::fast(),
            instant_network: false,
            wave: 64,
            timeout: Duration::from_secs(60),
            impairments: Impairments::none(),
            idle_timeout: SimDuration::from_secs(30),
            virtual_horizon: None,
            log_boundary: false,
            correlated: false,
            answer_ttl: None,
            force_interpreted: false,
            link_bandwidth: 0,
            pass_window: SimDuration::ZERO,
            pass_slots: 1,
            store_forward: None,
            client_retry_ms: 0,
            swap_at_client: 0,
        }
    }

    /// Saturation mode: zero link latency and zero legacy-stack delays.
    pub fn saturating(mut self) -> Self {
        self.instant_network = true;
        self.calibration = Calibration::instant();
        self
    }
}

/// What one wire-level client observed.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// The client's unique source host.
    pub host: String,
    /// The shard its traffic was pinned to.
    pub shard: usize,
    /// The service URL it discovered, when its session completed.
    pub url: Option<String>,
    /// Whether the reply echoed this client's own transaction id (SLP
    /// XID / DNS ID; vacuously true for UPnP, whose SSDP has no id).
    pub id_ok: bool,
    /// Wall-clock latency from request dispatch to final reply.
    pub latency: Option<Duration>,
    /// Replies addressed to this client that failed to decode (chaos
    /// corruption) — they never count as completion.
    pub garbled: u32,
}

/// What a mid-run drain-then-swap recorded: the two versioned
/// deployment handles (their stats stay live) and the counter state at
/// the instant the swap was dispatched.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// The v1 handle — draining from the swap on, retired once every
    /// shard reaped it.
    pub old: DeployedBridge,
    /// The v2 handle — active from the swap on.
    pub new: DeployedBridge,
    /// Driver iteration (= virtual millisecond) the swap was dispatched
    /// at.
    pub at_iteration: u64,
    /// v1's fleet counters at dispatch, read behind the flush barrier —
    /// the baseline the stale-counter checks compare against (a swap
    /// must never reset or double-count a ledger).
    pub pre_swap: ConcurrencyStats,
}

/// One control-plane action of a scripted command stream (see
/// [`run_sharded_scripted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptedCommand {
    /// Gate a fresh version through the registry and deploy it alongside
    /// the serving ones (it becomes the active target; nothing drains).
    Deploy,
    /// Gate a fresh version and drain-then-swap every serving version
    /// onto it.
    Swap,
    /// Drain the newest still-serving version without a replacement.
    /// Skipped (and logged as skipped) when it is the only serving
    /// version, so a random stream never opens an unrouted-traffic gap.
    Undeploy,
}

/// The result of a scripted run: the plain run plus every versioned
/// deployment handle the script minted (their stats stay live) and the
/// effective command log for failure dumps.
#[derive(Debug)]
pub struct ScriptedRun {
    /// The underlying run; [`ShardedRun::stats`] stays the v1 ledger.
    pub run: ShardedRun,
    /// Every version deployed, in deploy order (v1 first).
    pub deployments: Vec<DeployedBridge>,
    /// One line per script entry as executed (`"<iteration> deploy v3"`,
    /// `"<iteration> undeploy skipped (last serving version)"`, …).
    pub command_log: Vec<String>,
}

/// The result of one sharded run.
#[derive(Debug)]
pub struct ShardedRun {
    /// The case driven.
    pub case: BridgeCase,
    /// Shard count of the run.
    pub shards: usize,
    /// Per-client observations.
    pub outcomes: Vec<ClientOutcome>,
    /// Messages through the dispatch boundary (ingress + egress items).
    pub messages: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-shard and fleet-wide engine statistics.
    pub stats: ShardedStats,
    /// The dispatch-boundary log (when
    /// [`ShardedWorkload::log_boundary`]): one line per input/output
    /// crossing the shard boundary, virtual timestamps only — byte-equal
    /// across runs of the same `(seed, profile)`.
    pub boundary_log: Vec<String>,
    /// Lifecycle counters + error count sampled mid-run (right after the
    /// last wave started), for monotonicity checks against the final
    /// numbers.
    pub mid_snapshot: Option<(ConcurrencyStats, u64)>,
    /// The drain-then-swap record when
    /// [`ShardedWorkload::swap_at_client`] fired. [`ShardedRun::stats`]
    /// stays the v1 ledger; v2's lives in the report.
    pub swap: Option<SwapReport>,
    /// Fresh traffic dropped fleet-wide because no bridge version was
    /// active to take it (must be zero in every swap run — a swap leaves
    /// no active-version gap).
    pub unrouted: u64,
}

impl ShardedRun {
    /// Clients whose session completed with a discovered URL.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.url.is_some()).count()
    }

    /// Sustained message rate over the run.
    pub fn msgs_per_sec(&self) -> f64 {
        self.messages as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Completed sessions per second over the run.
    pub fn sessions_per_sec(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The `p`-th percentile (0–100) of session latency, in µs.
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        let mut samples: Vec<u64> =
            self.outcomes.iter().filter_map(|o| o.latency.map(|l| l.as_micros() as u64)).collect();
        if samples.is_empty() {
            return 0;
        }
        samples.sort_unstable();
        let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
        samples[rank.min(samples.len() - 1)]
    }

    /// Panics unless every client completed with the expected URL and
    /// its own transaction id, with no engine errors on any shard — the
    /// sharded-correctness invariant.
    pub fn assert_isolated(&self) {
        for (i, outcome) in self.outcomes.iter().enumerate() {
            assert_eq!(
                outcome.url.as_deref(),
                Some(crate::expected_discovery_url(self.case)),
                "case {} client {i} ({} on shard {}): wrong/missing reply; errors: {:?}",
                self.case.number(),
                outcome.host,
                outcome.shard,
                self.stats.errors()
            );
            assert!(
                outcome.id_ok,
                "case {} client {i} ({}): reply carried another session's id",
                self.case.number(),
                outcome.host
            );
        }
        assert_eq!(self.stats.session_count(), self.outcomes.len());
        assert!(self.stats.errors().is_empty(), "engine errors: {:?}", self.stats.errors());
        let c = self.stats.concurrency();
        assert_eq!(c.completed, self.outcomes.len() as u64);
        assert_eq!(c.active, 0);
        self.stats.assert_consistent(&format!("case {}", self.case.number()));
    }
}

/// Client-side protocol phase.
enum Phase {
    /// UDP request sent; awaiting the unicast reply datagram.
    AwaitUdpReply,
    /// (UPnP) M-SEARCH sent; awaiting the SSDP 200 OK.
    AwaitSsdp,
    /// (UPnP) description GET sent; awaiting the HTTP response.
    AwaitHttp,
    Done,
}

struct Client {
    host: String,
    shard: usize,
    phase: Phase,
    started: Option<Instant>,
    outcome: ClientOutcome,
}

/// The source port a case's client sends its UDP request from.
pub(crate) fn client_udp_port(case: BridgeCase) -> u16 {
    match case.source() {
        Family::Slp => 41_000,
        Family::Upnp => ssdp::SSDP_PORT,
        Family::Bonjour => 42_000,
        Family::Wsd => wsd::WSD_CLIENT_PORT,
    }
}

/// The bridge port a case's client addresses its UDP request to.
pub(crate) fn bridge_udp_port(case: BridgeCase) -> u16 {
    match case.source() {
        Family::Slp => slp::SLP_PORT,
        Family::Upnp => ssdp::SSDP_PORT,
        Family::Bonjour => mdns::MDNS_PORT,
        Family::Wsd => wsd::WSD_PORT,
    }
}

/// The native request bytes client `index` sends (unique id per client
/// where the protocol carries one).
pub(crate) fn request_wire(case: BridgeCase, index: usize) -> Vec<u8> {
    let id = index as u16;
    match case.source() {
        Family::Slp => slp::encode(&slp::SlpMessage::SrvRqst(slp::SrvRqst::new(id, SLP_TYPE))),
        Family::Upnp => ssdp::encode(&ssdp::SsdpMessage::MSearch(ssdp::MSearch::new(UPNP_TYPE))),
        Family::Bonjour => {
            mdns::encode(&mdns::DnsMessage::Question(mdns::DnsQuestion::new(id, DNS_TYPE)))
                .expect("question encodes")
        }
        Family::Wsd => {
            wsd::encode(&wsd::WsdMessage::Probe(wsd::WsdProbe::new(1 + index as u64, WSD_TYPE)))
        }
    }
}

/// Splits `http://host:port/path` into (host, port).
pub(crate) fn parse_location(location: &str) -> (String, u16) {
    let rest = location.strip_prefix("http://").unwrap_or(location);
    let authority = rest.split('/').next().unwrap_or(rest);
    match authority.rsplit_once(':') {
        Some((host, port)) => (host.to_owned(), port.parse().unwrap_or(80)),
        None => (authority.to_owned(), 80),
    }
}

/// Runs `workload.clients` wire-level clients of `case`'s source
/// protocol through a [`ShardedBridge`] with `workload.shards` engine
/// shards (each shard's simulation also hosts one target-side service).
/// Nothing is asserted — use [`ShardedRun::assert_isolated`] or inspect
/// the outcomes.
///
/// # Panics
///
/// Panics on harness bugs (models fail to load / deploy).
pub fn run_sharded_case(case: BridgeCase, workload: ShardedWorkload) -> ShardedRun {
    run_sharded_inner(case, workload, &[]).run
}

/// [`run_sharded_case`] with a control-plane command stream: each
/// `(iteration, command)` entry fires once the driver reaches that
/// iteration (= virtual millisecond), before that iteration's traffic —
/// modelling an operator redeploying a live fleet mid-run. Entries are
/// executed in iteration order regardless of input order.
///
/// # Panics
///
/// Panics on harness bugs (models fail to load / deploy).
pub fn run_sharded_scripted(
    case: BridgeCase,
    workload: ShardedWorkload,
    script: &[(u64, ScriptedCommand)],
) -> ScriptedRun {
    let mut sorted = script.to_vec();
    sorted.sort_by_key(|&(iteration, _)| iteration);
    run_sharded_inner(case, workload, &sorted)
}

fn run_sharded_inner(
    case: BridgeCase,
    workload: ShardedWorkload,
    script: &[(u64, ScriptedCommand)],
) -> ScriptedRun {
    let mut framework = Starlink::new();
    bridges::load_all_mdls(&mut framework).expect("models load");
    let config = EngineConfig {
        idle_timeout: workload.idle_timeout,
        correlator: workload
            .correlated
            .then(|| std::sync::Arc::new(bridges::default_correlator()) as _),
        answer_ttl: workload.answer_ttl,
        force_interpreted: workload.force_interpreted,
        store_forward: workload.store_forward,
    };
    let mut registry = BridgeRegistry::with_framework(framework);
    let (engines, v1) = registry
        .deploy_sharded(case.build(BRIDGE), config.clone(), workload.shards)
        .expect("sharded bridge deploys");
    let stats = v1.stats().clone();
    // Scripted control-plane state: every version minted (in deploy
    // order) and the ones not yet drained — newest serving is the
    // active target, so `Undeploy` pops from the back.
    let mut deployments = vec![v1.clone()];
    let mut serving = vec![v1.clone()];
    let mut command_log: Vec<String> = Vec::new();
    let mut script_index = 0usize;
    let calibration = workload.calibration;
    let instant_network = workload.instant_network;
    let impairments = workload.impairments;
    let link_bandwidth = workload.link_bandwidth;
    let pass = (workload.pass_window > SimDuration::ZERO && workload.pass_slots > 1).then(|| {
        // Satellite-style layout: the bridge is the hub every window
        // can reach; the in-shard service takes slot 1 and everything
        // else (the external wire-level clients) slot 0 — so clients
        // and the legacy service are never reachable in the same
        // window and a session must span passes.
        PassSchedule {
            window: workload.pass_window,
            slots: workload.pass_slots,
            hub: Some(BRIDGE.into()),
            assignments: [(SERVICE.into(), 1)].into_iter().collect(),
            default_slot: 0,
        }
    });
    let mut bridge = ShardedBridge::launch(workload.seed, BRIDGE, engines, |_, sim| {
        if instant_network {
            sim.set_latency(LatencyModel::Fixed(SimDuration::ZERO));
        }
        sim.set_impairments(impairments);
        if link_bandwidth > 0 {
            sim.set_link_bandwidth(link_bandwidth);
        }
        if let Some(pass) = pass.clone() {
            sim.set_pass_schedule(pass);
        }
        crate::add_target_service(sim, case, calibration);
    });

    let mut clients: Vec<Client> = (0..workload.clients)
        .map(|i| {
            let host = format!("10.20.{}.{}", 1 + i / 200, 1 + i % 200);
            let shard = bridge.shard_of(&host);
            Client {
                host: host.clone(),
                shard,
                phase: Phase::AwaitUdpReply,
                started: None,
                outcome: ClientOutcome {
                    host,
                    shard,
                    url: None,
                    id_ok: true,
                    latency: None,
                    garbled: 0,
                },
            }
        })
        .collect();
    let by_host: FxHashMap<String, usize> =
        clients.iter().enumerate().map(|(i, c)| (c.host.clone(), i)).collect();

    let udp_port = client_udp_port(case);
    let to = SimAddr::new(BRIDGE, bridge_udp_port(case));
    let upnp_source = case.source() == Family::Upnp;

    let run_start = Instant::now();
    let deadline = run_start + workload.timeout;
    let mut messages = 0u64;
    let mut completed = 0usize;
    // Clients whose run is over either way — completed, or terminally
    // failed at the driver (refused TCP connect). Once every client is
    // resolved the loop ends without burning the remaining horizon (or,
    // with no horizon, the wall-clock deadline).
    let mut resolved = 0usize;
    let mut next_start = 0usize;
    let mut iteration = 0u64;
    let mut inputs: Vec<ShardInput> = Vec::new();
    let mut outputs: Vec<(usize, ShardOutput)> = Vec::new();
    let mut boundary_log: Vec<String> = Vec::new();
    let mut mid_snapshot: Option<(ConcurrencyStats, u64)> = None;
    let mut swap: Option<SwapReport> = None;

    // Unresolved clients keep the loop alive, and so does an unfinished
    // command script: a late redeploy must still execute (against an
    // idle fleet) so its drain/retire bookkeeping is observable.
    while (resolved < clients.len() || script_index < script.len()) && Instant::now() < deadline {
        // A chaos run stops at its virtual quiescence bound even with
        // clients unresolved (dropped requests, partitioned peers): by
        // then every stalled session must have been reaped.
        if let Some(horizon) = workload.virtual_horizon {
            if SimTime::from_micros((iteration + 1) * 1_000) > horizon {
                break;
            }
        }
        // Client-side retransmission: under a pass schedule the first
        // request of a session may launch into a closed window and be
        // dropped on the wire, so real clients re-send on a timer. Every
        // `client_retry_ms` virtual milliseconds, re-issue the discovery
        // request for every started client still waiting on its first
        // reply. Deterministic: keyed off the iteration counter only.
        if workload.client_retry_ms > 0
            && iteration > 0
            && iteration.is_multiple_of(workload.client_retry_ms)
        {
            for (index, client) in clients.iter().enumerate().take(next_start) {
                if matches!(client.phase, Phase::AwaitUdpReply | Phase::AwaitSsdp) {
                    inputs.push(ShardInput::Datagram(Datagram {
                        from: SimAddr::new(client.host.as_str(), udp_port),
                        to: to.clone(),
                        payload: Bytes::copy_from_slice(&request_wire(case, index)),
                    }));
                }
            }
        }
        // Start the next wave of sessions.
        let wave_end = (next_start + workload.wave.max(1)).min(clients.len());
        for (index, client) in clients.iter_mut().enumerate().take(wave_end).skip(next_start) {
            if upnp_source {
                client.phase = Phase::AwaitSsdp;
            }
            client.started = Some(Instant::now());
            inputs.push(ShardInput::Datagram(Datagram {
                from: SimAddr::new(client.host.as_str(), udp_port),
                to: to.clone(),
                payload: Bytes::copy_from_slice(&request_wire(case, index)),
            }));
        }
        let last_wave_started = next_start < clients.len() && wave_end >= clients.len();
        next_start = wave_end;

        iteration += 1;
        messages += inputs.len() as u64;
        // One virtual millisecond per driver iteration: in-shard timers
        // (service delays, idle expiry) advance deterministically with
        // the drive loop, not with wall time.
        let now = SimTime::from_micros(iteration * 1_000);
        // Live drain-then-swap: once enough clients have started, gate a
        // second version of the same bridge through the registry and
        // swap every shard onto it — before this iteration's traffic, so
        // the wave just started lands on v2 while earlier exchanges
        // finish on the draining v1.
        if workload.swap_at_client > 0
            && swap.is_none()
            && stats.concurrency().started >= workload.swap_at_client as u64
        {
            let (v2_engines, v2) = registry
                .deploy_sharded(case.build(BRIDGE), config.clone(), workload.shards)
                .expect("v2 deploys through the same gate");
            if workload.log_boundary {
                boundary_log.push(format!(
                    "{} in  swap v{} -> v{}",
                    now.as_micros(),
                    v1.version(),
                    v2.version()
                ));
            }
            bridge.dispatch_control(now, swap_commands(&v2, v2_engines));
            bridge.flush();
            swap = Some(SwapReport {
                old: v1.clone(),
                new: v2,
                at_iteration: iteration,
                pre_swap: stats.concurrency(),
            });
        }
        // Scripted command stream: everything due at this iteration
        // fires before the iteration's traffic, like the single-swap
        // trigger above.
        while script_index < script.len() && script[script_index].0 <= iteration {
            let (_, command) = script[script_index];
            script_index += 1;
            match command {
                ScriptedCommand::Deploy | ScriptedCommand::Swap => {
                    let (engines, version) = registry
                        .deploy_sharded(case.build(BRIDGE), config.clone(), workload.shards)
                        .expect("scripted version deploys through the gate");
                    let verb = if command == ScriptedCommand::Deploy { "deploy" } else { "swap" };
                    command_log.push(format!("{} {verb} v{}", iteration, version.version()));
                    let commands = if command == ScriptedCommand::Deploy {
                        deploy_commands(&version, engines)
                    } else {
                        serving.clear();
                        swap_commands(&version, engines)
                    };
                    bridge.dispatch_control(now, commands);
                    serving.push(version.clone());
                    deployments.push(version);
                }
                ScriptedCommand::Undeploy => {
                    if serving.len() > 1 {
                        let version = serving.pop().expect("serving is non-empty");
                        command_log.push(format!("{} undeploy v{}", iteration, version.version()));
                        bridge.dispatch_control(now, undeploy_commands(&version));
                    } else {
                        command_log
                            .push(format!("{iteration} undeploy skipped (last serving version)"));
                    }
                }
            }
            bridge.flush();
        }
        if workload.log_boundary {
            for input in &inputs {
                boundary_log.push(describe_input(now, input));
            }
        }
        bridge.dispatch(now, inputs.drain(..));
        bridge.flush();
        if last_wave_started {
            // Stable read: the flush barrier guarantees every worker is
            // idle, so these counters are a deterministic function of
            // (seed, profile, workload).
            mid_snapshot = Some((stats.concurrency(), stats.error_count()));
        }
        bridge.drain_into(&mut outputs);
        messages += outputs.len() as u64;

        for (shard, output) in outputs.drain(..) {
            if workload.log_boundary {
                boundary_log.push(describe_output(now, shard, &output));
            }
            match output {
                ShardOutput::Datagram(datagram) => {
                    let Some(&index) = by_host.get(datagram.to.host.as_ref()) else { continue };
                    let client = &mut clients[index];
                    debug_assert_eq!(shard, client.shard, "reply left the pinned shard");
                    match client.phase {
                        Phase::AwaitUdpReply => {
                            let Some((url, id_ok)) =
                                decode_udp_reply(case, index, &datagram.payload)
                            else {
                                client.outcome.garbled += 1;
                                continue;
                            };
                            client.outcome.id_ok &= id_ok;
                            finish(client, url, &mut completed, &mut resolved);
                        }
                        Phase::AwaitSsdp => {
                            let Ok(ssdp::SsdpMessage::Response(response)) =
                                ssdp::decode(&datagram.payload)
                            else {
                                client.outcome.garbled += 1;
                                continue;
                            };
                            let (host, port) = parse_location(&response.location);
                            let get = http::HttpGet::new("/desc.xml", format!("{host}:{port}"));
                            let token = index as u64;
                            inputs.push(ShardInput::TcpConnect {
                                token,
                                from: SimAddr::new(client.host.as_str(), 49_152),
                                to: SimAddr::new(host, port),
                            });
                            inputs.push(ShardInput::TcpData {
                                token,
                                payload: Bytes::copy_from_slice(&http::encode(
                                    &http::HttpMessage::Get(get),
                                )),
                            });
                            client.phase = Phase::AwaitHttp;
                        }
                        Phase::AwaitHttp | Phase::Done => {}
                    }
                }
                ShardOutput::TcpData { token, payload } => {
                    let index = token as usize;
                    let Some(client) = clients.get_mut(index) else { continue };
                    if !matches!(client.phase, Phase::AwaitHttp) {
                        continue;
                    }
                    let Ok(http::HttpMessage::Ok(ok)) = http::decode(&payload) else {
                        client.outcome.garbled += 1;
                        continue;
                    };
                    let url = ok
                        .body
                        .split_once("<URLBase>")
                        .and_then(|(_, rest)| rest.split_once("</URLBase>"))
                        .map(|(base, _)| base.trim().to_owned())
                        .unwrap_or_default();
                    inputs.push(ShardInput::TcpClose { token });
                    finish(client, url, &mut completed, &mut resolved);
                }
                ShardOutput::TcpConnectFailed { token, .. } => {
                    // A partitioned description fetch: the client's run
                    // is over without a result (the engine-side session
                    // is reaped by idle expiry).
                    if let Some(client) = clients.get_mut(token as usize) {
                        if matches!(client.phase, Phase::AwaitHttp) {
                            client.phase = Phase::Done;
                            resolved += 1;
                        }
                    }
                }
                ShardOutput::TcpClosed { .. } => {}
            }
        }
    }

    // An early exit (every client resolved) must still bring the shard
    // clocks to the quiescence bound so idle-expiry timers of any
    // engine-side sessions left behind (refused connects) fire before
    // the caller reads the stats.
    if let Some(horizon) = workload.virtual_horizon {
        if SimTime::from_micros(iteration * 1_000) < horizon {
            bridge.advance(horizon);
            bridge.flush();
            bridge.drain_into(&mut outputs);
            messages += outputs.len() as u64;
            for (shard, output) in outputs.drain(..) {
                if workload.log_boundary {
                    boundary_log.push(describe_output(horizon, shard, &output));
                }
            }
        }
    }

    let elapsed = run_start.elapsed();
    let unrouted = bridge.unrouted();
    ScriptedRun {
        run: ShardedRun {
            case,
            shards: workload.shards,
            outcomes: clients.into_iter().map(|c| c.outcome).collect(),
            messages,
            elapsed,
            stats,
            boundary_log,
            mid_snapshot,
            swap,
            unrouted,
        },
        deployments,
        command_log,
    }
}

/// One deterministic boundary-log line for a dispatched input.
fn describe_input(now: SimTime, input: &ShardInput) -> String {
    match input {
        ShardInput::Datagram(d) => {
            format!("{} in  dgram {} -> {} {}B", now.as_micros(), d.from, d.to, d.payload.len())
        }
        ShardInput::TcpConnect { token, from, to } => {
            format!("{} in  tcp-connect #{token} {from} -> {to}", now.as_micros())
        }
        ShardInput::TcpData { token, payload } => {
            format!("{} in  tcp-data #{token} {}B", now.as_micros(), payload.len())
        }
        ShardInput::TcpClose { token } => format!("{} in  tcp-close #{token}", now.as_micros()),
        ShardInput::Control(_) => format!("{} in  control", now.as_micros()),
    }
}

/// One deterministic boundary-log line for a drained output.
fn describe_output(now: SimTime, shard: usize, output: &ShardOutput) -> String {
    match output {
        ShardOutput::Datagram(d) => format!(
            "{} out[{shard}] dgram {} -> {} {}B",
            now.as_micros(),
            d.from,
            d.to,
            d.payload.len()
        ),
        ShardOutput::TcpData { token, payload } => {
            format!("{} out[{shard}] tcp-data #{token} {}B", now.as_micros(), payload.len())
        }
        ShardOutput::TcpClosed { token } => {
            format!("{} out[{shard}] tcp-closed #{token}", now.as_micros())
        }
        ShardOutput::TcpConnectFailed { token, error } => {
            format!("{} out[{shard}] tcp-connect-failed #{token}: {error}", now.as_micros())
        }
    }
}

/// Decodes the final unicast reply of a UDP-source case, returning the
/// discovered URL and whether the reply echoed the client's own id
/// (SLP XID / DNS ID / WSD `RelatesTo` uuid).
fn decode_udp_reply(case: BridgeCase, index: usize, payload: &[u8]) -> Option<(String, bool)> {
    let id = index as u16;
    match case.source() {
        Family::Slp => match slp::decode(payload) {
            Ok(slp::SlpMessage::SrvRply(rply)) => Some((rply.url, rply.xid == id)),
            _ => None,
        },
        Family::Bonjour => match mdns::decode(payload) {
            Ok(mdns::DnsMessage::Response(response)) => Some((response.rdata, response.id == id)),
            _ => None,
        },
        Family::Wsd => match wsd::decode(payload) {
            Ok(wsd::WsdMessage::ProbeMatch(matched)) => {
                let own = matched.relates_to == wsd::probe_uuid(1 + index as u64);
                Some((matched.xaddrs, own))
            }
            _ => None,
        },
        Family::Upnp => None,
    }
}

fn finish(client: &mut Client, url: String, completed: &mut usize, resolved: &mut usize) {
    client.phase = Phase::Done;
    client.outcome.url = Some(url);
    client.outcome.latency = client.started.map(|s| s.elapsed());
    *completed += 1;
    *resolved += 1;
}

/// Runs every [`BridgeCase`] at `shards` shards and returns the twelve
/// runs — the mixed workload the throughput acceptance criterion is
/// measured on (aggregate msgs/sec = Σ messages / Σ elapsed).
pub fn run_sharded_mixed(workload: ShardedWorkload) -> Vec<ShardedRun> {
    BridgeCase::all()
        .iter()
        .map(|case| {
            let mut w = workload;
            w.seed = workload.seed + case.number() as u64 * 0x1000;
            run_sharded_case(*case, w)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_smoke_every_case_completes_on_two_shards() {
        // The short-mode throughput smoke wired into `cargo test`: every
        // case, a handful of clients, two shards, full isolation checks.
        for &case in BridgeCase::all() {
            let run = run_sharded_case(case, ShardedWorkload::new(2, 8));
            run.assert_isolated();
            assert!(run.messages >= 16, "case {}: {} messages", case.number(), run.messages);
        }
    }

    #[test]
    fn sharded_smoke_saturation_mode_completes() {
        let run =
            run_sharded_case(BridgeCase::SlpToBonjour, ShardedWorkload::new(4, 32).saturating());
        run.assert_isolated();
        assert!(run.msgs_per_sec() > 0.0);
        assert!(run.latency_percentile_us(99.0) >= run.latency_percentile_us(50.0));
    }
}
