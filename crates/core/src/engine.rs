//! The Automata Engine (§IV-B): a network actor that "executes the
//! behaviour of the merged automata i.e. it controls the sequence of
//! sending, receiving and translation of messages".
//!
//! One [`BridgeEngine`] is deployed per bridge, but — mediating
//! connectors serve many simultaneous interaction pairs — it is a
//! **multi-session runtime**, not a single state machine. Every
//! concurrently active client drives its own [`Execution`] inside a
//! session table:
//!
//! * **Keying** — a session is identified by its originator: the source
//!   [`SimAddr`] of the first datagram ([`SessionKey::Peer`]) or the
//!   accepted connection for TCP-originated flows ([`SessionKey::Conn`]).
//!   A pluggable [`SessionCorrelator`] can override this with
//!   protocol-level keys (XID/transaction-id style,
//!   [`SessionKey::Correlated`]) so retransmissions collapse onto one
//!   session and responses match by id rather than arrival order.
//! * **Routing** — each inbound datagram/TCP event is routed to exactly
//!   one session: by correlation key, by source address, or — for
//!   replies arriving from the *target* side of the bridge, whose source
//!   is the legacy service, not the originator — to the oldest session
//!   whose execution is waiting to receive that message on that part.
//! * **Lifecycle** — sessions are created lazily on the first
//!   successfully delivered message, reaped on completion, torn down on
//!   compose/emit/⊨ failure (a failed session can never wedge the
//!   bridge), and expired by a timer-driven idle timeout
//!   ([`EngineConfig::idle_timeout`]).
//!
//! At receiving states a session listens on the state's colour
//! (port/group), parses arriving bytes with the protocol's MDL codec,
//! and advances its execution; bridge (δ) states apply translation logic
//! and λ actions; at sending states it composes the translated abstract
//! message and emits it with the colour's network semantics (unicast
//! reply, multicast group, or TCP connection pointed by a prior
//! `set_host`).
//!
//! All routing decisions are **precomputed at deployment**: datagram →
//! part and listener → part lookup tables, the per-state emit plans
//! (transport/port/group), and the blank schema instances a fresh session
//! needs. The per-message path does table lookups and reuses one compose
//! scratch buffer — it allocates only what the network layer must own.

use crate::error::{CoreError, Result};
use crate::fused::{correlation_id, FuseReject, FusedPlan, ReplayEcho};
use crate::stats::BridgeStats;
use fxhash::FxHashMap;
use starlink_automata::{
    Action, Execution, FunctionRegistry, FusedArg, FusedOut, GlobalState, MergedAutomaton, PartId,
    ResolvedAction, StateId, StepOutcome, Transport,
};
use starlink_mdl::{FlatRecord, MdlCodec};
use starlink_message::AbstractMessage;
pub use starlink_net::SessionKey;
use starlink_net::{
    Actor, ConnId, Context, Datagram, Leg, SimAddr, SimDuration, SimTime, TcpEvent, TimerId,
    TraceEvent,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Bound on the bytes one TCP leg may buffer without holding a complete
/// message. A leg that crosses it fails its session, so a peer that
/// streams a never-ending message cannot grow the reassembly buffer.
pub const REASSEMBLY_CAP: usize = 64 * 1024;

/// Per-protocol session correlation hook (§IV's engine is model-driven;
/// how a protocol correlates request and response — XID, transaction id,
/// source endpoint — is itself protocol knowledge, so it plugs in).
///
/// Both hooks default to `None`, which selects the engine's built-in
/// routing: source-address keying for originators plus oldest-waiting-
/// receiver matching for replies from the target side.
pub trait SessionCorrelator: Send + Sync {
    /// Derives the session key an *inbound* message belongs to.
    fn inbound_key(
        &self,
        _part: usize,
        _protocol: &str,
        _message: &AbstractMessage,
        _from: &SimAddr,
    ) -> Option<SessionKey> {
        None
    }

    /// Derives an alias key from an *outbound* message, so the reply that
    /// echoes the same id finds the session that sent it.
    fn outbound_key(
        &self,
        _part: usize,
        _protocol: &str,
        _message: &AbstractMessage,
    ) -> Option<SessionKey> {
        None
    }

    /// The field instances of `message` carry their correlation id in,
    /// when this correlator keys on a single field — the declarative
    /// form of [`SessionCorrelator::inbound_key`] the fused fast path
    /// compiles into a slot read. Correlators that derive keys any other
    /// way return `None` (the default), which keeps their bridges on the
    /// interpreted path where the procedural hooks run unchanged.
    fn id_field(&self, _protocol: &str, _message: &str) -> Option<&str> {
        None
    }
}

/// A [`SessionCorrelator`] that keys sessions on an id field per
/// protocol (e.g. SLP's `XID`, DNS's `ID`): XID-style correlation as a
/// reusable model. Numeric ids key directly; textual ids (WS-Discovery's
/// `urn:uuid:...` MessageID) are hashed to the 64-bit key space.
///
/// Some protocols carry the id under *different field names per message*
/// — a WS-Discovery request's `MessageID` is echoed as the response's
/// `RelatesTo` — so a per-message override
/// ([`FieldCorrelator::message_field`]) takes precedence over the
/// per-protocol entry:
///
/// ```
/// use starlink_core::FieldCorrelator;
///
/// let correlator = FieldCorrelator::new([("SLP", "XID"), ("DNS", "ID")])
///     .message_field("WSD_Probe", "MessageID")
///     .message_field("WSD_ProbeMatch", "RelatesTo");
/// # let _ = correlator;
/// ```
#[derive(Debug, Clone, Default)]
pub struct FieldCorrelator {
    /// protocol → id field, for every message of the protocol.
    fields: BTreeMap<String, String>,
    /// message name → id field, overriding the protocol entry.
    message_fields: BTreeMap<String, String>,
}

impl FieldCorrelator {
    /// Creates a correlator mapping protocol names to the field carrying
    /// their transaction id.
    pub fn new<P: Into<String>, F: Into<String>>(pairs: impl IntoIterator<Item = (P, F)>) -> Self {
        FieldCorrelator {
            fields: pairs.into_iter().map(|(p, f)| (p.into(), f.into())).collect(),
            message_fields: BTreeMap::new(),
        }
    }

    /// Builder: keys instances of `message` on `field`, overriding the
    /// protocol-level entry (request/response pairs whose id travels
    /// under two names, like `MessageID` ↔ `RelatesTo`).
    pub fn message_field(mut self, message: impl Into<String>, field: impl Into<String>) -> Self {
        self.message_fields.insert(message.into(), field.into());
        self
    }

    fn key_of(&self, part: usize, protocol: &str, message: &AbstractMessage) -> Option<SessionKey> {
        let field =
            self.message_fields.get(message.name()).or_else(|| self.fields.get(protocol))?;
        let value = message.get(&field.as_str().into()).ok()?;
        let id = match value.as_u64() {
            Ok(id) => id,
            // Textual ids (uuids) key by hash; an empty value means the
            // field went unfilled and cannot correlate anything.
            Err(_) => match value.as_str() {
                Ok(text) if !text.is_empty() => fxhash::hash64(text),
                _ => return None,
            },
        };
        Some(SessionKey::Correlated(part, id))
    }
}

impl SessionCorrelator for FieldCorrelator {
    fn inbound_key(
        &self,
        part: usize,
        protocol: &str,
        message: &AbstractMessage,
        _from: &SimAddr,
    ) -> Option<SessionKey> {
        self.key_of(part, protocol, message)
    }

    fn outbound_key(
        &self,
        part: usize,
        protocol: &str,
        message: &AbstractMessage,
    ) -> Option<SessionKey> {
        self.key_of(part, protocol, message)
    }

    fn id_field(&self, protocol: &str, message: &str) -> Option<&str> {
        self.message_fields.get(message).or_else(|| self.fields.get(protocol)).map(String::as_str)
    }
}

/// Store-and-forward policy: instead of silently losing egress legs to
/// a partitioned, pass-closed or saturated link, a session parks them
/// in a bounded queue and retransmits on a calibrated interval until
/// the link heals (delay-tolerant discovery over contended links).
///
/// `Copy` so harness workload descriptors can embed it without losing
/// their own `Copy` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreForward {
    /// Maximum parked legs per session. A leg arriving at a full queue
    /// is refused and counted as a queue overflow — the session itself
    /// survives (and may later idle-expire).
    pub queue_bound: usize,
    /// How long to wait between replay attempts. Calibrate below the
    /// connectivity-window length so a heal is noticed within the
    /// window that granted it.
    pub retry_interval: SimDuration,
    /// Replay attempts before the engine gives up: parked legs are
    /// abandoned and the session is torn down as failed.
    pub max_retries: u32,
    /// Egress counts as saturated when more than this many bytes are
    /// already in flight on the link (`0` disables the saturation
    /// signal; partition/pass gating still applies).
    pub saturation_bytes: u64,
}

impl Default for StoreForward {
    fn default() -> Self {
        StoreForward {
            queue_bound: 8,
            retry_interval: SimDuration::from_millis(5),
            max_retries: 16,
            saturation_bytes: 0,
        }
    }
}

/// Runtime policy of a deployed engine.
#[derive(Clone)]
pub struct EngineConfig {
    /// A session with no activity for this long is expired and torn
    /// down. Must exceed the slowest legacy response delay (OpenSLP
    /// answers after ~6 s).
    pub idle_timeout: SimDuration,
    /// Optional protocol-level session correlation hook.
    pub correlator: Option<Arc<dyn SessionCorrelator>>,
    /// Time-to-live of cached answers on the fused fast path. `None`
    /// (the default) disables the answer cache; `Some(ttl)` lets a
    /// fused bridge serve repeated equivalent queries from its
    /// shard-local cache for `ttl` after the legacy response arrived.
    /// Interpreted bridges ignore this.
    pub answer_ttl: Option<SimDuration>,
    /// Skips fused-plan compilation even for fusable bridges, pinning
    /// the engine to the interpreted path (differential testing and
    /// baseline benchmarks).
    pub force_interpreted: bool,
    /// Store-and-forward session mode. `None` (the default) keeps the
    /// fail-fast behaviour: an egress leg meeting a dead link is simply
    /// handed to the network and lost. `Some(policy)` parks such legs
    /// and replays them when connectivity returns.
    pub store_forward: Option<StoreForward>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            idle_timeout: SimDuration::from_secs(30),
            correlator: None,
            answer_ttl: None,
            force_interpreted: false,
            store_forward: None,
        }
    }
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("idle_timeout", &self.idle_timeout)
            .field("correlator", &self.correlator.as_ref().map(|_| "<dyn>"))
            .field("answer_ttl", &self.answer_ttl)
            .field("force_interpreted", &self.force_interpreted)
            .field("store_forward", &self.store_forward)
            .finish()
    }
}

/// Per-part (per-protocol) networking state of one session.
#[derive(Debug, Default)]
struct PartState {
    /// Source of the last datagram received for this part — replies go
    /// back there (request/response over UDP).
    reply_to: Option<SimAddr>,
    /// Connection accepted on this part's listening port (we are the
    /// server side, e.g. serving HTTP GET in the UPnP→SLP case).
    server_conn: Option<ConnId>,
    /// Connection we initiated (client side, e.g. fetching the device
    /// description in the SLP→UPnP case).
    client_conn: Option<ConnId>,
    /// Payloads composed before the client connection finished its
    /// handshake; flushed on `Connected`.
    pending_out: VecDeque<Vec<u8>>,
}

/// One UDP egress leg parked by store-and-forward: everything needed to
/// replay the send once the link heals.
#[derive(Debug)]
struct ParkedLeg {
    port: u16,
    destination: SimAddr,
    payload: Vec<u8>,
}

/// One live interaction pair: the per-client state the engine multiplexes.
#[derive(Debug)]
struct Session {
    exec: Execution,
    /// When the first message of the session entered the framework.
    started: SimTime,
    /// Last time an event touched this session (idle-expiry clock).
    last_activity: SimTime,
    /// Creation order, for deterministic oldest-first reply matching.
    seq: u64,
    set_host: Option<SimAddr>,
    parts: Vec<PartState>,
    /// Connections owned by this session.
    conns: Vec<ConnId>,
    /// Correlator-registered alias keys pointing at this session.
    aliases: Vec<SessionKey>,
    /// Pending idle-expiry timer (id for cancellation, tag for lookup).
    timer: Option<(TimerId, u64)>,
    /// Set when a compose/emit/⊨ failure condemned the session.
    failed: bool,
    /// Egress legs parked by store-and-forward, FIFO.
    parked: VecDeque<ParkedLeg>,
    /// Replay attempts made since the last successful flush.
    retries: u32,
    /// Pending replay timer (id for cancellation, tag for lookup).
    retry_timer: Option<(TimerId, u64)>,
}

/// Network semantics of sending from one state, resolved at deployment.
#[derive(Debug, Clone)]
struct EmitSpec {
    transport: Transport,
    port: u16,
    /// The colour's multicast group endpoint, pre-built.
    group: Option<SimAddr>,
}

/// Where an inbound message should go.
enum Route {
    /// An existing session claims it.
    Existing(SessionKey),
    /// No session claims it; a new one may be opened under this key.
    Fresh(SessionKey),
}

/// A cached answer on the fused fast path: the legacy service's parsed
/// response, replayed through the backward translation steps for each
/// equivalent query until it expires.
#[derive(Debug)]
struct CachedAnswer {
    /// Canonical key bytes, compared on lookup so a 64-bit hash
    /// collision degrades to a miss instead of a wrong answer.
    key: Vec<u8>,
    response: FlatRecord,
    expires_at: SimTime,
}

/// One in-flight exchange on the fused fast path: the slot-record
/// sibling of [`Session`], carrying just what the four-step relay needs.
#[derive(Debug)]
struct FusedSession {
    started: SimTime,
    last_activity: SimTime,
    seq: u64,
    /// The parsed request, kept to personalise the response (echoed
    /// ids) and to key the answer cache.
    request: FlatRecord,
    /// The raw request wire, kept (only while the answer cache is on)
    /// to build a [`ReplayTemplate`] when the response arrives.
    request_wire: Vec<u8>,
    /// The originator; the translated response goes back here.
    reply_to: SimAddr,
    aliases: Vec<SessionKey>,
    timer: Option<(TimerId, u64)>,
    cache_hash: Option<u64>,
    cache_key: Vec<u8>,
    /// Egress legs parked by store-and-forward, FIFO.
    parked: VecDeque<ParkedLeg>,
    /// Replay attempts made since the last successful flush.
    retries: u32,
    /// Pending replay timer (id for cancellation, tag for lookup).
    retry_timer: Option<(TimerId, u64)>,
    /// The parked leg is the translated reply: flushing it completes
    /// the exchange (the session records completion, not re-insertion).
    complete_on_flush: bool,
}

/// Bound on cached answers per engine: a flood of *distinct* queries
/// must not grow the cache without limit. At the cap, new answers are
/// simply not cached (existing keys still refresh).
const FUSED_CACHE_CAP: usize = 65_536;

/// A wire-level replay template layered over one [`CachedAnswer`]: a
/// duplicate query whose bytes match `request` everywhere outside
/// `id_span` is answered by copying `reply` and re-personalising its
/// id-dependent spans (`echoes`) from the incoming id bytes — no
/// parse, no translation, no compose. Proven sound per exchange by
/// [`FusedPlan::build_replay_parts`]; queries that miss every template
/// (different length, different fields, a foreign encoder) fall
/// through to the record-replay path, so a template is only ever a
/// shortcut, never a behaviour change.
#[derive(Debug)]
struct ReplayTemplate {
    request: Vec<u8>,
    id_span: std::ops::Range<usize>,
    reply: Vec<u8>,
    echoes: Vec<ReplayEcho>,
    /// The backing answer-cache entry; the template is dropped with it.
    cache_hash: u64,
    expires_at: SimTime,
}

impl ReplayTemplate {
    /// Serves `incoming` into `out` when it matches this template;
    /// leaves `out` unspecified and returns `false` otherwise.
    fn replay_into(&self, incoming: &[u8], out: &mut Vec<u8>, scratch: &mut String) -> bool {
        let span = &self.id_span;
        if incoming.len() != self.request.len()
            || incoming[..span.start] != self.request[..span.start]
            || incoming[span.end..] != self.request[span.end..]
        {
            return false;
        }
        out.clear();
        out.extend_from_slice(&self.reply);
        let id = &incoming[span.clone()];
        for echo in &self.echoes {
            match *echo {
                ReplayEcho::Verbatim { offset } => {
                    out[offset..offset + id.len()].copy_from_slice(id);
                }
                ReplayEcho::Derived { offset, len, func } => {
                    // Re-run the proven builtin on the incoming id. The
                    // splice only fits when the output length matches
                    // the template's; anything else (including a
                    // non-UTF-8 or padded id the flat parser would read
                    // differently from its wire span) falls back to the
                    // normal path.
                    let Ok(text) = std::str::from_utf8(id) else {
                        return false;
                    };
                    if text.trim() != text {
                        return false;
                    }
                    scratch.clear();
                    match func.apply(FusedArg::Text(text), scratch) {
                        Ok(FusedOut::Text) if scratch.len() == len => {
                            out[offset..offset + len].copy_from_slice(scratch.as_bytes());
                        }
                        _ => return false,
                    }
                }
            }
        }
        true
    }
}

/// Bound on live replay templates per engine: one per *distinct* hot
/// query suffices for a duplicate flood, so the list stays tiny and a
/// linear scan beats any index. At the cap, new exchanges simply get no
/// template (the record cache still serves them).
const REPLAY_TEMPLATE_CAP: usize = 64;

/// The per-engine state of the fused fast path: the compiled plan, its
/// session table, the shard-local answer cache, and the reusable
/// records/buffers that keep the steady-state path allocation-free.
#[derive(Debug)]
struct FusedRuntime {
    plan: FusedPlan,
    sessions: FxHashMap<SessionKey, FusedSession>,
    cache: FxHashMap<u64, CachedAnswer>,
    /// Wire-level replay templates over the hottest cache entries.
    templates: Vec<ReplayTemplate>,
    /// Scratch: inbound parse target, translation output, step text
    /// buffer, cache-key buffer, wire-compose buffer.
    parse_rec: FlatRecord,
    out_rec: FlatRecord,
    probe_rec: FlatRecord,
    scratch: String,
    key_buf: Vec<u8>,
    wire_buf: Vec<u8>,
    /// Emit plans resolved at deployment: the outbound query goes to
    /// the target colour's group, the reply unicasts from the source
    /// colour's port.
    req_spec: EmitSpec,
    req_group: SimAddr,
    resp_spec: EmitSpec,
}

/// The deployed bridge: implements [`Actor`] so it can be dropped into a
/// simulation as "the framework ... transparently deployed in the
/// network" (§IV).
pub struct BridgeEngine {
    automaton: Arc<MergedAutomaton>,
    codecs: Vec<Arc<MdlCodec>>,
    functions: Arc<FunctionRegistry>,
    stats: BridgeStats,
    config: EngineConfig,
    /// The session table: one live execution per interaction pair.
    /// Ordered iteration is never needed — routing picks sessions by
    /// minimum `seq`, not map order — so every per-message lookup table
    /// here uses the fast non-cryptographic hasher from `fxhash`.
    sessions: FxHashMap<SessionKey, Session>,
    /// Correlator-registered alias → primary session key.
    aliases: FxHashMap<SessionKey, SessionKey>,
    /// Open connection → (owning session, part).
    conn_sessions: FxHashMap<ConnId, (SessionKey, usize)>,
    /// Pending expiry-timer tag → session key.
    timer_sessions: FxHashMap<u64, SessionKey>,
    /// Pending store-and-forward replay-timer tag → session key.
    retry_sessions: FxHashMap<u64, SessionKey>,
    next_timer_tag: u64,
    next_session_seq: u64,
    /// Per-connection stream reassembly buffers.
    buffers: FxHashMap<ConnId, Vec<u8>>,
    /// (UDP port, multicast group) → part, first declaration wins.
    udp_exact: FxHashMap<(u16, Arc<str>), usize>,
    /// UDP port → part for unicast delivery (responses come back unicast
    /// even on multicast colours). Cross-part collisions are rejected at
    /// deployment.
    udp_fallback: FxHashMap<u16, usize>,
    /// TCP listening port → part; cross-part collisions rejected.
    tcp_parts: FxHashMap<u16, usize>,
    /// Per-state emit plans.
    emit_specs: FxHashMap<GlobalState, EmitSpec>,
    /// Blank schema-typed instances for every message the bridge may
    /// compose; cloned into each fresh session's store.
    blank_instances: Vec<AbstractMessage>,
    /// Scratch buffer reused by every compose, across all sessions.
    compose_buf: Vec<u8>,
    /// The fused fast path, when the bridge's structure admits one.
    /// `Some` routes every datagram and timer through the slot-record
    /// relay; `None` runs the interpreted engine above.
    fused: Option<Box<FusedRuntime>>,
    /// Why fusion was rejected (diagnostics; `None` when fused).
    fused_reject: Option<FuseReject>,
}

impl std::fmt::Debug for BridgeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BridgeEngine")
            .field("automaton", &self.automaton.name())
            .field("active_sessions", &self.sessions.len())
            .finish()
    }
}

impl BridgeEngine {
    /// Creates an engine for `automaton`; `codecs` must be indexed by the
    /// automaton's part order (the framework resolves them by protocol
    /// name). All routing tables are computed here, once.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Deployment`] when two parts declare colours
    /// on the same UDP port or TCP listening port — such a bridge cannot
    /// route inbound traffic unambiguously, so the collision surfaces at
    /// deployment instead of as silent misrouting.
    pub(crate) fn new(
        automaton: Arc<MergedAutomaton>,
        codecs: Vec<Arc<MdlCodec>>,
        functions: Arc<FunctionRegistry>,
        stats: BridgeStats,
        config: EngineConfig,
    ) -> Result<Self> {
        let mut udp_exact: FxHashMap<(u16, Arc<str>), usize> = FxHashMap::default();
        let mut udp_fallback: FxHashMap<u16, usize> = FxHashMap::default();
        let mut tcp_parts: FxHashMap<u16, usize> = FxHashMap::default();
        for (index, part) in automaton.parts().iter().enumerate() {
            for color in part.colors() {
                match color.transport() {
                    Transport::Udp => {
                        if let Some(group) = color.group() {
                            udp_exact.entry((color.port(), Arc::from(group))).or_insert(index);
                        }
                        if let Some(&prev) = udp_fallback.get(&color.port()) {
                            if prev != index {
                                return Err(CoreError::Deployment(format!(
                                    "parts {:?} and {:?} both declare colours on UDP port {}: \
                                     inbound datagrams would be misrouted",
                                    automaton.parts()[prev].protocol(),
                                    part.protocol(),
                                    color.port()
                                )));
                            }
                        }
                        udp_fallback.insert(color.port(), index);
                    }
                    Transport::Tcp => {
                        if let Some(&prev) = tcp_parts.get(&color.port()) {
                            if prev != index {
                                return Err(CoreError::Deployment(format!(
                                    "parts {:?} and {:?} both listen on TCP port {}",
                                    automaton.parts()[prev].protocol(),
                                    part.protocol(),
                                    color.port()
                                )));
                            }
                        }
                        tcp_parts.insert(color.port(), index);
                    }
                }
            }
        }

        let mut emit_specs = FxHashMap::default();
        for (pi, part) in automaton.parts().iter().enumerate() {
            for si in 0..part.states().len() {
                let gs = GlobalState { part: PartId(pi), state: StateId(si) };
                if let Ok(color) = part.color_of(StateId(si)) {
                    emit_specs.insert(
                        gs,
                        EmitSpec {
                            transport: color.transport(),
                            port: color.port(),
                            group: color.group().map(|g| SimAddr::new(g, color.port())),
                        },
                    );
                }
            }
        }

        // Schema-typed blank instances for every message the bridge may
        // need to compose (assignment targets and send-transition labels).
        let mut targets: BTreeSet<&str> = BTreeSet::new();
        for assignment in automaton.assignments() {
            targets.insert(&assignment.target_message);
        }
        for part in automaton.parts() {
            for transition in part.transitions() {
                if transition.action == Action::Send {
                    targets.insert(&transition.message);
                }
            }
        }
        let mut blank_instances = Vec::with_capacity(targets.len());
        for name in targets {
            for codec in &codecs {
                if let Ok(schema) = codec.schema(name) {
                    blank_instances.push(schema.instantiate());
                    break;
                }
            }
        }

        // Attempt the fused fast path: a structural probe over the
        // automaton plus the codecs' flat plans. Any rejection keeps
        // the interpreted engine — never an error.
        let (fused, fused_reject) = if config.force_interpreted {
            (None, Some(FuseReject::ForcedInterpreted))
        } else {
            match FusedPlan::compile(&automaton, &codecs, config.correlator.as_deref(), &functions)
            {
                Ok(plan) => {
                    let req_spec = emit_specs.get(&plan.req_out_state()).cloned();
                    let resp_spec = emit_specs.get(&plan.resp_out_state()).cloned();
                    match (req_spec, resp_spec) {
                        (Some(req_spec), Some(resp_spec)) if req_spec.group.is_some() => {
                            let req_group = req_spec.group.clone().expect("checked above");
                            (
                                Some(Box::new(FusedRuntime {
                                    plan,
                                    sessions: FxHashMap::default(),
                                    cache: FxHashMap::default(),
                                    templates: Vec::new(),
                                    parse_rec: FlatRecord::new(),
                                    out_rec: FlatRecord::new(),
                                    probe_rec: FlatRecord::new(),
                                    scratch: String::new(),
                                    key_buf: Vec::new(),
                                    wire_buf: Vec::new(),
                                    req_spec,
                                    req_group,
                                    resp_spec,
                                })),
                                None,
                            )
                        }
                        _ => (None, Some(FuseReject::NoMulticastGroup)),
                    }
                }
                Err(reason) => (None, Some(reason)),
            }
        };

        Ok(BridgeEngine {
            automaton,
            codecs,
            functions,
            stats,
            config,
            sessions: FxHashMap::default(),
            aliases: FxHashMap::default(),
            conn_sessions: FxHashMap::default(),
            timer_sessions: FxHashMap::default(),
            retry_sessions: FxHashMap::default(),
            next_timer_tag: 0,
            next_session_seq: 0,
            buffers: FxHashMap::default(),
            udp_exact,
            udp_fallback,
            tcp_parts,
            emit_specs,
            blank_instances,
            compose_buf: Vec::new(),
            fused,
            fused_reject,
        })
    }

    /// Whether this engine runs the fused parse→translate→compose fast
    /// path (the interpreted engine otherwise).
    pub fn is_fused(&self) -> bool {
        self.fused.is_some()
    }

    /// Why the fused fast path was rejected for this bridge, when it
    /// was (`None` on fused engines).
    pub fn fused_reject(&self) -> Option<&FuseReject> {
        self.fused_reject.as_ref()
    }

    /// The reject reason rendered as text (`None` on fused engines).
    pub fn fused_reject_reason(&self) -> Option<String> {
        self.fused_reject.as_ref().map(|r| r.to_string())
    }

    /// The stats handle shared with the harness.
    pub fn stats(&self) -> BridgeStats {
        self.stats.clone()
    }

    /// Builds a fresh session resting in the automaton's initial state,
    /// with the precomputed blank instances registered in its store.
    fn fresh_session(&mut self, now: SimTime) -> Session {
        let mut exec = Execution::new(self.automaton.clone(), self.functions.clone());
        for blank in &self.blank_instances {
            exec.store_mut().insert(blank.clone());
        }
        let seq = self.next_session_seq;
        self.next_session_seq += 1;
        Session {
            exec,
            started: now,
            last_activity: now,
            seq,
            set_host: None,
            parts: (0..self.automaton.parts().len()).map(|_| PartState::default()).collect(),
            conns: Vec::new(),
            aliases: Vec::new(),
            timer: None,
            failed: false,
            parked: VecDeque::new(),
            retries: 0,
            retry_timer: None,
        }
    }

    /// Finds the part a datagram belongs to by its destination port
    /// (and, for multicast, group address) — a table lookup.
    fn part_for_datagram(&self, datagram: &Datagram) -> Option<usize> {
        if datagram.to.is_multicast() {
            let key = (datagram.to.port, datagram.to.host.clone());
            if let Some(&part) = self.udp_exact.get(&key) {
                return Some(part);
            }
        }
        self.udp_fallback.get(&datagram.to.port).copied()
    }

    fn part_for_listener(&self, local_port: u16) -> Option<usize> {
        self.tcp_parts.get(&local_port).copied()
    }

    /// Decides which session an inbound datagram belongs to: correlator
    /// key first, then source-address key, then the oldest session whose
    /// execution is waiting to receive this message on this part
    /// (replies from the target side arrive from the legacy service's
    /// address, never the originator's).
    fn route_inbound(&self, part: usize, message: &AbstractMessage, from: &SimAddr) -> Route {
        if let Some(correlator) = &self.config.correlator {
            let protocol = self.automaton.parts()[part].protocol();
            if let Some(key) = correlator.inbound_key(part, protocol, message, from) {
                let key = self.aliases.get(&key).cloned().unwrap_or(key);
                return if self.sessions.contains_key(&key) {
                    Route::Existing(key)
                } else {
                    Route::Fresh(key)
                };
            }
        }
        let peer = SessionKey::Peer(from.clone());
        if self.sessions.contains_key(&peer) {
            return Route::Existing(peer);
        }
        if let Some(key) = self.waiting_receiver(part, message.name()) {
            return Route::Existing(key);
        }
        Route::Fresh(peer)
    }

    /// The oldest live session whose execution rests in `part` at a
    /// state with a receive transition for `name`. (Failed sessions are
    /// torn down in `conclude`, so everything in the table is live.)
    fn waiting_receiver(&self, part: usize, name: &str) -> Option<SessionKey> {
        self.sessions
            .iter()
            .filter(|(_, session)| {
                session.exec.current().part.0 == part && session.exec.expects_receive(name)
            })
            .min_by_key(|(_, session)| session.seq)
            .map(|(key, _)| key.clone())
    }

    /// Arms the idle-expiry timer for a freshly registered session.
    fn arm_expiry(&mut self, ctx: &mut Context<'_>, key: &SessionKey, session: &mut Session) {
        let tag = self.next_timer_tag;
        self.next_timer_tag += 1;
        let id = ctx.set_timer(self.config.idle_timeout, tag);
        self.timer_sessions.insert(tag, key.clone());
        session.timer = Some((id, tag));
    }

    /// Whether a UDP egress leg towards `destination` would meet a dead
    /// or saturated link right now — the store-and-forward park signal.
    fn egress_blocked(ctx: &mut Context<'_>, policy: &StoreForward, destination: &SimAddr) -> bool {
        !ctx.link_open(destination)
            || (policy.saturation_bytes > 0
                && ctx.link_backlog(destination) > policy.saturation_bytes)
    }

    /// Arms (or re-arms) the store-and-forward replay timer; the tag is
    /// returned so fused sessions can record it too.
    fn arm_retry(
        &mut self,
        ctx: &mut Context<'_>,
        key: &SessionKey,
        interval: SimDuration,
    ) -> (TimerId, u64) {
        let tag = self.next_timer_tag;
        self.next_timer_tag += 1;
        let id = ctx.set_timer(interval, tag);
        self.retry_sessions.insert(tag, key.clone());
        (id, tag)
    }

    /// Unlinks a session's engine-level bookkeeping: expiry timer,
    /// aliases, connection routes, stream buffers and any parked
    /// store-and-forward legs (which are abandoned, keeping the
    /// parked/replayed/abandoned balance exact). Connections the session
    /// opened itself are closed; accepted ones belong to their peer.
    fn unlink(&mut self, ctx: &mut Context<'_>, session: &mut Session) {
        if let Some((id, tag)) = session.timer.take() {
            if self.timer_sessions.remove(&tag).is_some() {
                ctx.cancel_timer(id);
            }
        }
        if let Some((id, tag)) = session.retry_timer.take() {
            if self.retry_sessions.remove(&tag).is_some() {
                ctx.cancel_timer(id);
            }
        }
        if !session.parked.is_empty() {
            self.stats.record_legs_abandoned(session.parked.len() as u64);
            session.parked.clear();
        }
        for alias in session.aliases.drain(..) {
            self.aliases.remove(&alias);
        }
        for conn in session.conns.drain(..) {
            self.conn_sessions.remove(&conn);
            self.buffers.remove(&conn);
        }
        for part in &mut session.parts {
            if let Some(conn) = part.client_conn.take() {
                // Already closed by the peer when this fails; nothing
                // left to release then.
                let _ = ctx.tcp_close(conn);
            }
        }
    }

    /// Ends a session after an event: reaped on completion, torn down on
    /// failure, or put back into the table. A completed execution whose
    /// final legs are still parked stays in the table until the replay
    /// timer flushes them — completion is recorded when the last byte
    /// actually leaves.
    fn conclude(&mut self, ctx: &mut Context<'_>, key: SessionKey, mut session: Session) {
        if session.failed {
            self.unlink(ctx, &mut session);
            self.stats.record_session_failed();
            ctx.record(TraceEvent::SessionFailed { key });
        } else if self.session_complete(&session) && session.parked.is_empty() {
            self.unlink(ctx, &mut session);
            self.stats.record_session(session.started, ctx.now());
            let elapsed = ctx.now().since(session.started);
            ctx.record(TraceEvent::SessionComplete { key, elapsed });
        } else {
            self.sessions.insert(key, session);
        }
    }

    fn session_complete(&self, session: &Session) -> bool {
        session.exec.at_accepting()
            || (!session.exec.history().is_empty()
                && session.exec.current() == self.automaton.initial())
    }

    fn apply_actions(
        &self,
        ctx: &mut Context<'_>,
        key: &SessionKey,
        session: &mut Session,
        outcome: &StepOutcome,
    ) {
        for action in &outcome.actions {
            let key = key.clone();
            match action {
                ResolvedAction::SetHost { host, port } => {
                    let target = SimAddr::new(host.as_str(), *port);
                    session.set_host = Some(target.clone());
                    ctx.record(TraceEvent::SetHost { key, target });
                }
                ResolvedAction::Custom { name, .. } => {
                    ctx.record(TraceEvent::CustomAction { key, name: name.clone() });
                }
            }
        }
    }

    /// Delivers a parsed message to a session's execution and pumps any
    /// sends that become ready. Returns whether the execution accepted
    /// the message.
    fn deliver(
        &mut self,
        ctx: &mut Context<'_>,
        key: &SessionKey,
        session: &mut Session,
        message: AbstractMessage,
    ) -> bool {
        match session.exec.deliver(message) {
            Ok(outcome) => {
                self.apply_actions(ctx, key, session, &outcome);
                self.pump_sends(ctx, key, session);
                true
            }
            Err(err) => {
                let error = err.to_string();
                self.stats.record_error(error.clone());
                ctx.record(TraceEvent::Rejected { key: key.clone(), error });
                false
            }
        }
    }

    /// Composes and emits messages while the session's execution rests in
    /// sending states. Any compose/emit/⊨ failure condemns the session
    /// (`failed`), so the caller tears it down instead of leaving the
    /// bridge wedged mid-exchange.
    fn pump_sends(&mut self, ctx: &mut Context<'_>, key: &SessionKey, session: &mut Session) {
        while let Some(name) = session.exec.next_send().map(str::to_owned) {
            let current = session.exec.current();
            let part_index = current.part.0;
            let Some(spec) = self.emit_specs.get(&current).cloned() else {
                self.stats.record_error(format!("state {current} has no colour to send on"));
                session.failed = true;
                return;
            };
            let codec = self.codecs[part_index].clone();
            let message = match session.exec.store().get(&name) {
                Some(instance) => instance.clone(),
                None => AbstractMessage::new(codec.protocol(), name.as_str()),
            };
            // Dynamic ⊨ check (equation (1)): the translated instance must
            // have every mandatory field filled before it may leave the
            // framework — an unfilled field means the declared semantic
            // equivalence did not hold for this exchange.
            let unfilled = message.unfilled_mandatory();
            if !unfilled.is_empty() {
                let fields = format!("{unfilled:?}");
                self.stats.record_error(format!(
                    "⊨ violation: {name} has unfilled mandatory fields {fields}"
                ));
                let (key, unfilled) = (key.clone(), Some(fields));
                ctx.record(TraceEvent::RefusedSend { key, message: name, unfilled });
                session.failed = true;
                return;
            }
            let mut payload = std::mem::take(&mut self.compose_buf);
            if let Err(err) = codec.compose_into(&message, &mut payload) {
                self.compose_buf = payload;
                self.stats.record_error(format!("compose {name}: {err}"));
                let (key, error) = (key.clone(), err.to_string());
                ctx.record(TraceEvent::ComposeFailed { key, message: name, error });
                session.failed = true;
                return;
            }
            let emitted = self.emit(ctx, key, session, part_index, &spec, &payload);
            self.compose_buf = payload;
            if let Err(err) = emitted {
                self.stats.record_error(format!("emit {name}: {err}"));
                let (key, error) = (key.clone(), err.to_string());
                ctx.record(TraceEvent::EmitFailed { key, message: name, error });
                session.failed = true;
                return;
            }
            if let Some(correlator) = &self.config.correlator {
                let protocol = self.automaton.parts()[part_index].protocol();
                if let Some(alias) = correlator.outbound_key(part_index, protocol, &message) {
                    if !self.aliases.contains_key(&alias) {
                        self.aliases.insert(alias.clone(), key.clone());
                        session.aliases.push(alias);
                    }
                }
            }
            match session.exec.sent(message) {
                Ok(outcome) => self.apply_actions(ctx, key, session, &outcome),
                Err(err) => {
                    self.stats.record_error(err.to_string());
                    session.failed = true;
                    return;
                }
            }
            if self.session_complete(session) {
                break;
            }
        }
    }

    /// Emits composed bytes with the colour's network semantics:
    /// UDP replies go to the requester, UDP requests to the multicast
    /// group (or a `set_host` target), TCP uses the accepted connection
    /// when serving or opens one towards the `set_host` target.
    fn emit(
        &mut self,
        ctx: &mut Context<'_>,
        key: &SessionKey,
        session: &mut Session,
        part_index: usize,
        spec: &EmitSpec,
        payload: &[u8],
    ) -> Result<()> {
        match spec.transport {
            Transport::Udp => {
                let destination = if let Some(reply_to) = session.parts[part_index].reply_to.clone()
                {
                    reply_to
                } else if let Some(target) = session.set_host.clone() {
                    target
                } else if let Some(group) = spec.group.clone() {
                    group
                } else {
                    return Err(CoreError::Deployment(format!(
                        "no destination for unicast UDP send on part #{part_index}: \
                         no request to reply to, no set_host, no group"
                    )));
                };
                if let Some(policy) = self.config.store_forward {
                    if Self::egress_blocked(ctx, &policy, &destination) {
                        // Park instead of losing the leg to a dead link.
                        // The execution still advances — parking is a
                        // transport-level concern, not a protocol one.
                        if session.parked.len() >= policy.queue_bound {
                            self.stats.record_queue_overflow();
                            ctx.record(TraceEvent::QueueOverflow {
                                key: key.clone(),
                                leg: Leg::Egress,
                            });
                            return Ok(());
                        }
                        session.parked.push_back(ParkedLeg {
                            port: spec.port,
                            destination,
                            payload: payload.to_vec(),
                        });
                        self.stats.record_leg_parked();
                        if session.retry_timer.is_none() {
                            session.retry_timer =
                                Some(self.arm_retry(ctx, key, policy.retry_interval));
                        }
                        ctx.record(TraceEvent::Parked {
                            key: key.clone(),
                            leg: Leg::Egress,
                            queued: session.parked.len(),
                        });
                        return Ok(());
                    }
                }
                ctx.udp_send(spec.port, destination, payload);
                Ok(())
            }
            Transport::Tcp => {
                if let Some(conn) = session.parts[part_index].server_conn {
                    ctx.tcp_send(conn, payload).map_err(CoreError::from)
                } else if let Some(conn) = session.parts[part_index].client_conn {
                    ctx.tcp_send(conn, payload).map_err(CoreError::from)
                } else {
                    let Some(target) = session.set_host.clone() else {
                        return Err(CoreError::Deployment(
                            "TCP send requires a prior set_host λ action".into(),
                        ));
                    };
                    let conn = ctx.tcp_connect(target).map_err(CoreError::from)?;
                    self.conn_sessions.insert(conn, (key.clone(), part_index));
                    session.conns.push(conn);
                    session.parts[part_index].client_conn = Some(conn);
                    session.parts[part_index].pending_out.push_back(payload.to_vec());
                    Ok(())
                }
            }
        }
    }

    /// Handles a fired store-and-forward replay timer, for either
    /// engine path: flush parked legs whose link has healed, then
    /// conclude, give up or re-arm.
    fn on_retry_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let Some(key) = self.retry_sessions.remove(&tag) else { return };
        let Some(policy) = self.config.store_forward else { return };
        if let Some(mut rt) = self.fused.take() {
            self.fused_retry(ctx, &mut rt, policy, key);
            self.fused = Some(rt);
            return;
        }
        let Some(mut session) = self.sessions.remove(&key) else { return };
        session.retry_timer = None;
        // A parked session is alive by definition: replay attempts
        // count as activity so idle expiry defers to the give-up bound.
        session.last_activity = ctx.now();
        while let Some(leg) = session.parked.front() {
            if Self::egress_blocked(ctx, &policy, &leg.destination) {
                break;
            }
            let leg = session.parked.pop_front().expect("front checked");
            ctx.udp_send(leg.port, leg.destination, leg.payload);
            self.stats.record_leg_replayed();
            ctx.record(TraceEvent::Replayed { key: key.clone() });
        }
        if session.parked.is_empty() {
            session.retries = 0;
            self.conclude(ctx, key, session);
            return;
        }
        session.retries += 1;
        if session.retries >= policy.max_retries {
            ctx.record(TraceEvent::GaveUp { key: key.clone(), legs: session.parked.len() });
            session.failed = true;
            self.conclude(ctx, key, session);
            return;
        }
        session.retry_timer = Some(self.arm_retry(ctx, &key, policy.retry_interval));
        self.sessions.insert(key, session);
    }

    /// Parses as many messages as the buffered stream for `conn` holds,
    /// delivering each to the owning session. A leg buffering more than
    /// [`REASSEMBLY_CAP`] bytes with no complete message fails the
    /// session (its buffer is freed when the session unlinks).
    fn drain_stream(
        &mut self,
        ctx: &mut Context<'_>,
        key: &SessionKey,
        session: &mut Session,
        conn: ConnId,
        part_index: usize,
    ) {
        loop {
            if session.failed || self.session_complete(session) {
                break;
            }
            let Some(buffer) = self.buffers.get(&conn) else { break };
            if buffer.is_empty() {
                break;
            }
            match self.codecs[part_index].parse_prefix(buffer) {
                Ok((message, consumed)) => {
                    self.buffers.get_mut(&conn).expect("buffer exists").drain(..consumed);
                    self.deliver(ctx, key, session, message);
                }
                Err(_) if buffer.len() > REASSEMBLY_CAP => {
                    let buffered = buffer.len();
                    self.stats.record_error(format!(
                        "reassembly on part #{part_index}: conn #{} buffered {buffered} bytes \
                         without a complete message",
                        conn.0
                    ));
                    ctx.record(TraceEvent::StreamOverflow { key: key.clone(), conn, buffered });
                    session.failed = true;
                    break;
                }
                Err(_) => {
                    // Incomplete message: wait for more stream data.
                    break;
                }
            }
        }
    }

    /// Handles a datagram routed to a fresh key: a session is opened only
    /// when its first message actually advances a fresh execution, so
    /// rogue traffic (replies without a session, duplicates after
    /// completion) is recorded and dropped without occupying the table.
    fn open_session(
        &mut self,
        ctx: &mut Context<'_>,
        key: SessionKey,
        part_index: usize,
        from: SimAddr,
        message: AbstractMessage,
    ) {
        let mut session = self.fresh_session(ctx.now());
        session.parts[part_index].reply_to = Some(from);
        if self.deliver(ctx, &key, &mut session, message) {
            self.stats.record_session_started();
            self.arm_expiry(ctx, &key, &mut session);
            self.conclude(ctx, key, session);
        }
    }
}

/// The fused fast path: the four-step relay (parse request → forward
/// steps → emit query; parse response → backward steps → emit reply)
/// over flat slot records, plus the shard-local answer cache. Every
/// routing and lifecycle decision mirrors the interpreted engine above —
/// same session keys, same alias registration, same stats transitions —
/// so the two paths are observably identical except for speed.
impl BridgeEngine {
    /// Bench/CI instrumentation: one fused **forward** translation —
    /// parse `wire` as the source-protocol request, run the forward
    /// steps, compose the outbound query into `out` (cleared first).
    /// Reuses the engine's internal scratch records, so steady-state
    /// calls make zero heap allocations — the property the alloc
    /// census asserts.
    ///
    /// # Errors
    ///
    /// When the engine is interpreted, `wire` does not parse, or is not
    /// the expected request message.
    pub fn fused_forward_probe(
        &mut self,
        wire: &[u8],
        out: &mut Vec<u8>,
    ) -> std::result::Result<(), String> {
        let Some(rt) = self.fused.as_deref_mut() else {
            return Err(self
                .fused_reject
                .as_ref()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "engine is not fused".to_owned()));
        };
        let message =
            rt.plan.source_plan().parse(wire, &mut rt.parse_rec).map_err(|err| err.to_string())?;
        if message != rt.plan.req_in() {
            return Err(format!(
                "expected {}, parsed {}",
                rt.plan.source_plan().message_name(rt.plan.req_in()),
                rt.plan.source_plan().message_name(message)
            ));
        }
        rt.plan.translate_request(&rt.parse_rec, &mut rt.out_rec, &mut rt.scratch)?;
        rt.plan.target_plan().compose(&rt.out_rec, out).map_err(|err| err.to_string())
    }

    /// Bench/CI instrumentation: one fused **backward** translation —
    /// parse the original request and the target-protocol response,
    /// run the backward steps (which echo the requester's correlation
    /// id), compose the legacy reply into `out` (cleared first). Zero
    /// steady-state allocations, like [`Self::fused_forward_probe`].
    ///
    /// # Errors
    ///
    /// As the forward probe, for either input.
    pub fn fused_backward_probe(
        &mut self,
        request_wire: &[u8],
        response_wire: &[u8],
        out: &mut Vec<u8>,
    ) -> std::result::Result<(), String> {
        let Some(rt) = self.fused.as_deref_mut() else {
            return Err(self
                .fused_reject
                .as_ref()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "engine is not fused".to_owned()));
        };
        let request = rt
            .plan
            .source_plan()
            .parse(request_wire, &mut rt.probe_rec)
            .map_err(|err| err.to_string())?;
        if request != rt.plan.req_in() {
            return Err("request wire is not the request message".to_owned());
        }
        let response = rt
            .plan
            .target_plan()
            .parse(response_wire, &mut rt.parse_rec)
            .map_err(|err| err.to_string())?;
        if response != rt.plan.resp_in() {
            return Err("response wire is not the response message".to_owned());
        }
        rt.plan.translate_response(
            &rt.probe_rec,
            &rt.parse_rec,
            &mut rt.out_rec,
            &mut rt.scratch,
        )?;
        rt.plan.source_plan().compose(&rt.out_rec, out).map_err(|err| err.to_string())
    }

    /// Bench/CI instrumentation: seeds the answer cache with the legacy
    /// answer for `request_wire`'s normalized key, as a completed
    /// exchange would, with a far-future expiry. Prepares
    /// [`Self::fused_cache_hit_probe`].
    ///
    /// # Errors
    ///
    /// When the engine is interpreted, the cache is disabled
    /// (`answer_ttl` unset), or either wire does not parse as the
    /// expected message.
    pub fn fused_cache_seed_probe(
        &mut self,
        request_wire: &[u8],
        response_wire: &[u8],
    ) -> std::result::Result<(), String> {
        if self.config.answer_ttl.is_none() {
            return Err("answer cache is disabled (no answer_ttl)".to_owned());
        }
        let Some(rt) = self.fused.as_deref_mut() else {
            return Err(self
                .fused_reject
                .as_ref()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "engine is not fused".to_owned()));
        };
        let request = rt
            .plan
            .source_plan()
            .parse(request_wire, &mut rt.probe_rec)
            .map_err(|err| err.to_string())?;
        if request != rt.plan.req_in() {
            return Err("request wire is not the request message".to_owned());
        }
        rt.plan.cache_key_bytes(&rt.probe_rec, &mut rt.key_buf);
        let hash = fxhash::hash64(&rt.key_buf[..]);
        let response = rt
            .plan
            .target_plan()
            .parse(response_wire, &mut rt.parse_rec)
            .map_err(|err| err.to_string())?;
        if response != rt.plan.resp_in() {
            return Err("response wire is not the response message".to_owned());
        }
        rt.cache.insert(
            hash,
            CachedAnswer {
                key: rt.key_buf.clone(),
                response: rt.parse_rec.clone(),
                expires_at: SimTime::from_micros(u64::MAX),
            },
        );
        self.stats.record_cache_insertion();
        // Layer the wire-level replay template, exactly as a completed
        // live exchange would.
        rt.plan.translate_response(
            &rt.probe_rec,
            &rt.parse_rec,
            &mut rt.out_rec,
            &mut rt.scratch,
        )?;
        rt.plan
            .source_plan()
            .compose(&rt.out_rec, &mut rt.wire_buf)
            .map_err(|err| err.to_string())?;
        rt.templates.retain(|t| t.cache_hash != hash);
        if rt.templates.len() < REPLAY_TEMPLATE_CAP {
            if let Some(parts) =
                rt.plan.build_replay_parts(&rt.probe_rec, request_wire, &rt.parse_rec, &rt.wire_buf)
            {
                rt.templates.push(ReplayTemplate {
                    request: request_wire.to_vec(),
                    id_span: parts.id_span,
                    reply: rt.wire_buf.clone(),
                    echoes: parts.echoes,
                    cache_hash: hash,
                    expires_at: SimTime::from_micros(u64::MAX),
                });
            }
        }
        Ok(())
    }

    /// Bench/CI instrumentation: one answer-cache **hit** worth of
    /// work — parse the request, build the normalized key, look the
    /// answer up, replay it through the backward steps (personalizing
    /// the echoed id for *this* requester) and compose the reply into
    /// `out`. This is exactly the per-message kernel a deployed fused
    /// engine runs when it serves a duplicate query from the cache;
    /// benched against a full forward+backward translation it yields
    /// the hit-to-full cost ratio `BENCH_throughput.json` reports.
    ///
    /// # Errors
    ///
    /// When the engine is interpreted, `wire` is not the request
    /// message, or no cached answer matches (seed with
    /// [`Self::fused_cache_seed_probe`] first).
    pub fn fused_cache_hit_probe(
        &mut self,
        wire: &[u8],
        out: &mut Vec<u8>,
    ) -> std::result::Result<(), String> {
        let Some(rt) = self.fused.as_deref_mut() else {
            return Err(self
                .fused_reject
                .as_ref()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "engine is not fused".to_owned()));
        };
        // Wire-level replay first, exactly like the live datagram path.
        if rt.templates.iter().any(|t| t.replay_into(wire, out, &mut rt.scratch)) {
            return Ok(());
        }
        let message =
            rt.plan.source_plan().parse(wire, &mut rt.parse_rec).map_err(|err| err.to_string())?;
        if message != rt.plan.req_in() {
            return Err("wire is not the request message".to_owned());
        }
        rt.plan.cache_key_bytes(&rt.parse_rec, &mut rt.key_buf);
        let hash = fxhash::hash64(&rt.key_buf[..]);
        let entry = match rt.cache.get(&hash) {
            Some(entry) if entry.key == rt.key_buf => entry,
            _ => return Err("no cached answer for this query".to_owned()),
        };
        rt.plan.translate_response(
            &rt.parse_rec,
            &entry.response,
            &mut rt.out_rec,
            &mut rt.scratch,
        )?;
        rt.plan.source_plan().compose(&rt.out_rec, out).map_err(|err| err.to_string())
    }

    fn fused_datagram(&mut self, ctx: &mut Context<'_>, rt: &mut FusedRuntime, datagram: Datagram) {
        let Some(part_index) = self.part_for_datagram(&datagram) else {
            ctx.record(TraceEvent::NoPart { to: datagram.to });
            return;
        };
        let source_side = part_index == rt.plan.source_part();
        if source_side && self.config.answer_ttl.is_some() && !rt.templates.is_empty() {
            // Wire-level replay: a byte-duplicate of a completed query
            // (new correlation id only) is answered straight from the
            // template, before any parse. Expired templates are swept
            // silently — the expiration counter belongs to the backing
            // record-cache entry, which a fallthrough query still
            // touches.
            let now = ctx.now();
            rt.templates.retain(|t| now < t.expires_at);
            if rt
                .templates
                .iter()
                .any(|t| t.replay_into(&datagram.payload, &mut rt.wire_buf, &mut rt.scratch))
            {
                ctx.udp_send(rt.resp_spec.port, datagram.from.clone(), &rt.wire_buf[..]);
                self.stats.record_cache_hit();
                self.stats.record_session_started();
                self.stats.record_session(now, now);
                ctx.record(TraceEvent::CacheReplay { key: SessionKey::Peer(datagram.from) });
                return;
            }
        }
        let parsed = if source_side {
            rt.plan.source_plan().parse(&datagram.payload, &mut rt.parse_rec)
        } else {
            rt.plan.target_plan().parse(&datagram.payload, &mut rt.parse_rec)
        };
        let message = match parsed {
            Ok(message) => message,
            Err(err) => {
                self.stats.record_error(format!("parse on part #{part_index}: {err}"));
                ctx.record(TraceEvent::ParseFailed { error: err.to_string() });
                return;
            }
        };
        let expected = if source_side { rt.plan.req_in() } else { rt.plan.resp_in() };
        if message != expected {
            // A message the relay never consumes here (e.g. our own
            // multicast query looped back): the interpreted execution
            // would reject the delivery — record and drop.
            let name = if source_side {
                rt.plan.source_plan().message_name(message)
            } else {
                rt.plan.target_plan().message_name(message)
            };
            self.stats.record_error(format!(
                "bridge dropped message: unexpected {name} on part #{part_index}"
            ));
            ctx.record(TraceEvent::UnexpectedMessage { name: name.to_owned() });
            return;
        }
        if source_side {
            self.fused_request(ctx, rt, datagram.from, &datagram.payload);
        } else {
            self.fused_response(ctx, rt, datagram.from);
        }
    }

    /// Handles a parsed request sitting in `rt.parse_rec`: answer-cache
    /// lookup, else forward translation, query emission and session
    /// registration.
    fn fused_request(
        &mut self,
        ctx: &mut Context<'_>,
        rt: &mut FusedRuntime,
        from: SimAddr,
        payload: &[u8],
    ) {
        let now = ctx.now();
        let key = rt
            .plan
            .req_in_id()
            .and_then(|slot| correlation_id(&rt.parse_rec, slot))
            .map(|id| SessionKey::Correlated(rt.plan.source_part(), id))
            .unwrap_or_else(|| SessionKey::Peer(from.clone()));
        let key = self.aliases.get(&key).cloned().unwrap_or(key);
        if rt.sessions.contains_key(&key) {
            // The relay is awaiting the legacy response for this
            // exchange; a retransmitted request is a delivery its
            // execution does not expect — record and drop.
            self.stats.record_error(format!(
                "bridge dropped message: duplicate request for live session {key}"
            ));
            ctx.record(TraceEvent::DuplicateRequest { key });
            return;
        }

        let mut cache_hash = None;
        if self.config.answer_ttl.is_some() {
            rt.plan.cache_key_bytes(&rt.parse_rec, &mut rt.key_buf);
            let hash = fxhash::hash64(&rt.key_buf[..]);
            cache_hash = Some(hash);
            if let Some(entry) = rt.cache.get(&hash) {
                if entry.key == rt.key_buf && now >= entry.expires_at {
                    rt.cache.remove(&hash);
                    self.stats.record_cache_expiration();
                }
            }
            let hit = match rt.cache.get(&hash) {
                Some(entry) if entry.key == rt.key_buf => rt
                    .plan
                    .translate_response(
                        &rt.parse_rec,
                        &entry.response,
                        &mut rt.out_rec,
                        &mut rt.scratch,
                    )
                    .is_ok(),
                _ => false,
            };
            if hit {
                let served = rt.plan.source_plan().unfilled_mandatory(&rt.out_rec).is_none()
                    && rt.plan.source_plan().compose(&rt.out_rec, &mut rt.wire_buf).is_ok();
                if served {
                    ctx.udp_send(rt.resp_spec.port, from, &rt.wire_buf[..]);
                    self.stats.record_cache_hit();
                    // The exchange opened and completed in one step;
                    // both transitions are recorded so the lifecycle
                    // accounting stays balanced.
                    self.stats.record_session_started();
                    self.stats.record_session(now, now);
                    ctx.record(TraceEvent::CacheHit { key });
                    return;
                }
                // A cached answer that no longer replays is discarded,
                // along with any template layered over it.
                rt.cache.remove(&hash);
                rt.templates.retain(|t| t.cache_hash != hash);
            }
            self.stats.record_cache_miss();
        }

        // Full translation: request → target query.
        if let Err(error) =
            rt.plan.translate_request(&rt.parse_rec, &mut rt.out_rec, &mut rt.scratch)
        {
            self.stats.record_error(format!("bridge dropped message: {error}"));
            ctx.record(TraceEvent::Rejected { key, error });
            return;
        }
        // The session opens here, mirroring the interpreted engine
        // (which counts a started session once the delivery advances a
        // fresh execution, even if the send then fails).
        if let Some(field) = rt.plan.target_plan().unfilled_mandatory(&rt.out_rec) {
            self.stats.record_error(format!(
                "⊨ violation: {} has unfilled mandatory fields [{:?}]",
                rt.plan.req_out_name(),
                field
            ));
            let message = rt.plan.req_out_name().to_owned();
            ctx.record(TraceEvent::RefusedSend { key, message, unfilled: None });
            self.stats.record_session_started();
            self.stats.record_session_failed();
            return;
        }
        if let Err(err) = rt.plan.target_plan().compose(&rt.out_rec, &mut rt.wire_buf) {
            self.stats.record_error(format!("compose {}: {err}", rt.plan.req_out_name()));
            let (message, error) = (rt.plan.req_out_name().to_owned(), err.to_string());
            ctx.record(TraceEvent::ComposeFailed { key, message, error });
            self.stats.record_session_started();
            self.stats.record_session_failed();
            return;
        }
        let mut parked_query = None;
        if let Some(policy) = self.config.store_forward {
            if Self::egress_blocked(ctx, &policy, &rt.req_group) {
                if policy.queue_bound == 0 {
                    self.stats.record_queue_overflow();
                    ctx.record(TraceEvent::QueueOverflow { key: key.clone(), leg: Leg::Query });
                } else {
                    parked_query = Some(ParkedLeg {
                        port: rt.req_spec.port,
                        destination: rt.req_group.clone(),
                        payload: rt.wire_buf.clone(),
                    });
                }
            }
        }
        if parked_query.is_none() {
            ctx.udp_send(rt.req_spec.port, rt.req_group.clone(), &rt.wire_buf[..]);
        }

        let seq = self.next_session_seq;
        self.next_session_seq += 1;
        let mut session = FusedSession {
            started: now,
            last_activity: now,
            seq,
            request: rt.parse_rec.clone(),
            request_wire: if self.config.answer_ttl.is_some() {
                payload.to_vec()
            } else {
                Vec::new()
            },
            reply_to: from,
            aliases: Vec::new(),
            timer: None,
            cache_hash,
            cache_key: if cache_hash.is_some() {
                std::mem::take(&mut rt.key_buf)
            } else {
                Vec::new()
            },
            parked: VecDeque::new(),
            retries: 0,
            retry_timer: None,
            complete_on_flush: false,
        };
        // Outbound alias: the reply echoing this query's id finds the
        // session that sent it, exactly like the interpreted engine's
        // correlator hook.
        if let Some(slot) = rt.plan.req_out_id() {
            if let Some(id) = correlation_id(&rt.out_rec, slot) {
                let alias = SessionKey::Correlated(rt.plan.target_part(), id);
                if !self.aliases.contains_key(&alias) {
                    self.aliases.insert(alias.clone(), key.clone());
                    session.aliases.push(alias);
                }
            }
        }
        self.stats.record_session_started();
        if let Some(leg) = parked_query {
            let policy = self.config.store_forward.expect("leg parked only under the policy");
            session.parked.push_back(leg);
            self.stats.record_leg_parked();
            session.retry_timer = Some(self.arm_retry(ctx, &key, policy.retry_interval));
            ctx.record(TraceEvent::Parked { key: key.clone(), leg: Leg::Query, queued: 1 });
        }
        let tag = self.next_timer_tag;
        self.next_timer_tag += 1;
        let id = ctx.set_timer(self.config.idle_timeout, tag);
        self.timer_sessions.insert(tag, key.clone());
        session.timer = Some((id, tag));
        rt.sessions.insert(key, session);
    }

    /// Routes a parsed legacy response sitting in `rt.parse_rec` to the
    /// session awaiting it: by echoed correlation id, by source
    /// address, else to the oldest waiting session.
    fn fused_response(&mut self, ctx: &mut Context<'_>, rt: &mut FusedRuntime, from: SimAddr) {
        if let Some(slot) = rt.plan.resp_in_id() {
            if let Some(id) = correlation_id(&rt.parse_rec, slot) {
                let key = SessionKey::Correlated(rt.plan.target_part(), id);
                let key = self.aliases.get(&key).cloned().unwrap_or(key);
                if rt.sessions.contains_key(&key) {
                    self.fused_deliver_response(ctx, rt, key);
                } else {
                    self.stats.record_error(format!(
                        "bridge dropped message: no session awaits response id {id:#x}"
                    ));
                    ctx.record(TraceEvent::UnmatchedResponse);
                }
                return;
            }
        }
        let peer = SessionKey::Peer(from);
        let key = if rt.sessions.contains_key(&peer) {
            Some(peer)
        } else {
            // Replies arrive from the legacy service's address, never
            // the originator's: oldest-first matching, like the
            // interpreted engine's waiting-receiver scan.
            rt.sessions.iter().min_by_key(|(_, s)| s.seq).map(|(k, _)| k.clone())
        };
        match key {
            Some(key) => self.fused_deliver_response(ctx, rt, key),
            None => {
                self.stats.record_error(
                    "bridge dropped message: no session awaits a response".to_owned(),
                );
                ctx.record(TraceEvent::UnmatchedResponse);
            }
        }
    }

    fn fused_deliver_response(
        &mut self,
        ctx: &mut Context<'_>,
        rt: &mut FusedRuntime,
        key: SessionKey,
    ) {
        let mut session = rt.sessions.remove(&key).expect("routed to live fused session");
        // Backward steps run against the *original request*, so echoed
        // ids (XID, RelatesTo) personalise the reply.
        if let Err(err) = rt.plan.translate_response(
            &session.request,
            &rt.parse_rec,
            &mut rt.out_rec,
            &mut rt.scratch,
        ) {
            // An undeliverable message is dropped; the session keeps
            // waiting (and may still idle-expire), like a rejected
            // interpreted delivery.
            self.stats.record_error(format!("bridge dropped message: {err}"));
            ctx.record(TraceEvent::Rejected { key: key.clone(), error: err });
            rt.sessions.insert(key, session);
            return;
        }
        session.last_activity = ctx.now();
        if let Some(field) = rt.plan.source_plan().unfilled_mandatory(&rt.out_rec) {
            self.stats.record_error(format!(
                "⊨ violation: {} has unfilled mandatory fields [{:?}]",
                rt.plan.resp_out_name(),
                field
            ));
            let message = rt.plan.resp_out_name().to_owned();
            ctx.record(TraceEvent::RefusedSend { key, message, unfilled: None });
            self.unlink_fused(ctx, &mut session);
            self.stats.record_session_failed();
            return;
        }
        if let Err(err) = rt.plan.source_plan().compose(&rt.out_rec, &mut rt.wire_buf) {
            self.stats.record_error(format!("compose {}: {err}", rt.plan.resp_out_name()));
            let (message, error) = (rt.plan.resp_out_name().to_owned(), err.to_string());
            ctx.record(TraceEvent::ComposeFailed { key, message, error });
            self.unlink_fused(ctx, &mut session);
            self.stats.record_session_failed();
            return;
        }
        let mut parked_reply = false;
        if let Some(policy) = self.config.store_forward {
            if Self::egress_blocked(ctx, &policy, &session.reply_to) {
                if session.parked.len() >= policy.queue_bound {
                    // The reply cannot leave and cannot park: the
                    // exchange is condemned rather than left to wedge.
                    self.stats.record_queue_overflow();
                    self.unlink_fused(ctx, &mut session);
                    self.stats.record_session_failed();
                    ctx.record(TraceEvent::QueueOverflow { key, leg: Leg::Reply });
                    return;
                }
                session.parked.push_back(ParkedLeg {
                    port: rt.resp_spec.port,
                    destination: session.reply_to.clone(),
                    payload: rt.wire_buf.clone(),
                });
                self.stats.record_leg_parked();
                session.complete_on_flush = true;
                parked_reply = true;
            }
        }
        if !parked_reply {
            ctx.udp_send(rt.resp_spec.port, session.reply_to.clone(), &rt.wire_buf[..]);
        }
        // Cache the legacy answer for future equivalent queries. The
        // parsed response (not the personalised reply) is stored; each
        // hit re-runs the backward steps with the fresh request.
        if let (Some(ttl), Some(hash)) = (self.config.answer_ttl, session.cache_hash) {
            if rt.cache.len() < FUSED_CACHE_CAP || rt.cache.contains_key(&hash) {
                rt.cache.insert(
                    hash,
                    CachedAnswer {
                        key: std::mem::take(&mut session.cache_key),
                        response: rt.parse_rec.clone(),
                        expires_at: ctx.now() + ttl,
                    },
                );
                self.stats.record_cache_insertion();
                // Layer a wire-level replay template over the fresh
                // entry when the exchange proves replayable. A stale
                // template for the same entry is replaced either way.
                rt.templates.retain(|t| t.cache_hash != hash);
                if rt.templates.len() < REPLAY_TEMPLATE_CAP {
                    if let Some(parts) = rt.plan.build_replay_parts(
                        &session.request,
                        &session.request_wire,
                        &rt.parse_rec,
                        &rt.wire_buf,
                    ) {
                        rt.templates.push(ReplayTemplate {
                            request: std::mem::take(&mut session.request_wire),
                            id_span: parts.id_span,
                            reply: rt.wire_buf.clone(),
                            echoes: parts.echoes,
                            cache_hash: hash,
                            expires_at: ctx.now() + ttl,
                        });
                    }
                }
            }
        }
        if parked_reply {
            let policy = self.config.store_forward.expect("leg parked only under the policy");
            if session.retry_timer.is_none() {
                session.retry_timer = Some(self.arm_retry(ctx, &key, policy.retry_interval));
            }
            let queued = session.parked.len();
            ctx.record(TraceEvent::Parked { key: key.clone(), leg: Leg::Reply, queued });
            rt.sessions.insert(key, session);
            return;
        }
        self.unlink_fused(ctx, &mut session);
        self.stats.record_session(session.started, ctx.now());
        let elapsed = ctx.now().since(session.started);
        ctx.record(TraceEvent::SessionComplete { key, elapsed });
    }

    /// [`BridgeEngine::unlink`] for fused sessions: expiry and replay
    /// timers, alias bookkeeping, and abandonment of any still-parked
    /// legs (fused sessions own no connections).
    fn unlink_fused(&mut self, ctx: &mut Context<'_>, session: &mut FusedSession) {
        if let Some((id, tag)) = session.timer.take() {
            if self.timer_sessions.remove(&tag).is_some() {
                ctx.cancel_timer(id);
            }
        }
        if let Some((id, tag)) = session.retry_timer.take() {
            if self.retry_sessions.remove(&tag).is_some() {
                ctx.cancel_timer(id);
            }
        }
        if !session.parked.is_empty() {
            self.stats.record_legs_abandoned(session.parked.len() as u64);
            session.parked.clear();
        }
        for alias in session.aliases.drain(..) {
            self.aliases.remove(&alias);
        }
    }

    /// [`BridgeEngine::on_timer`] for fused sessions: idle expiry with
    /// re-arm on interim activity.
    fn fused_timer(&mut self, ctx: &mut Context<'_>, rt: &mut FusedRuntime, tag: u64) {
        let Some(key) = self.timer_sessions.remove(&tag) else { return };
        let Some(mut session) = rt.sessions.remove(&key) else { return };
        session.timer = None;
        let deadline = session.last_activity + self.config.idle_timeout;
        if ctx.now() >= deadline {
            self.unlink_fused(ctx, &mut session);
            self.stats.record_session_expired();
            let idle = ctx.now().since(session.last_activity);
            ctx.record(TraceEvent::SessionExpired { key, idle });
        } else {
            let remaining = deadline.since(ctx.now());
            let new_tag = self.next_timer_tag;
            self.next_timer_tag += 1;
            let id = ctx.set_timer(remaining, new_tag);
            self.timer_sessions.insert(new_tag, key.clone());
            session.timer = Some((id, new_tag));
            rt.sessions.insert(key, session);
        }
    }

    /// One store-and-forward replay attempt for a fused session: flush
    /// every leg whose link has healed, then complete, give up or
    /// re-arm.
    fn fused_retry(
        &mut self,
        ctx: &mut Context<'_>,
        rt: &mut FusedRuntime,
        policy: StoreForward,
        key: SessionKey,
    ) {
        let Some(mut session) = rt.sessions.remove(&key) else { return };
        session.retry_timer = None;
        // A parked session is alive by definition: replay attempts
        // count as activity so idle expiry defers to the give-up bound.
        session.last_activity = ctx.now();
        while let Some(leg) = session.parked.front() {
            if Self::egress_blocked(ctx, &policy, &leg.destination) {
                break;
            }
            let leg = session.parked.pop_front().expect("front checked");
            ctx.udp_send(leg.port, leg.destination, leg.payload);
            self.stats.record_leg_replayed();
            ctx.record(TraceEvent::Replayed { key: key.clone() });
        }
        if session.parked.is_empty() {
            session.retries = 0;
            if session.complete_on_flush {
                self.unlink_fused(ctx, &mut session);
                self.stats.record_session(session.started, ctx.now());
                let elapsed = ctx.now().since(session.started);
                ctx.record(TraceEvent::SessionComplete { key, elapsed });
            } else {
                rt.sessions.insert(key, session);
            }
            return;
        }
        session.retries += 1;
        if session.retries >= policy.max_retries {
            ctx.record(TraceEvent::GaveUp { key: key.clone(), legs: session.parked.len() });
            self.unlink_fused(ctx, &mut session);
            self.stats.record_session_failed();
            return;
        }
        session.retry_timer = Some(self.arm_retry(ctx, &key, policy.retry_interval));
        rt.sessions.insert(key, session);
    }
}

/// Control-plane surface: the questions a multi-version host
/// ([`crate::host::EngineHost`]) asks each hosted engine when routing
/// events across coexisting bridge versions during a drain-then-swap.
impl BridgeEngine {
    /// Live sessions across both engine paths — the drain gauge: a
    /// draining version is reaped when this reaches zero.
    pub(crate) fn live_sessions(&self) -> usize {
        self.sessions.len() + self.fused.as_ref().map_or(0, |rt| rt.sessions.len())
    }

    /// The merged automaton's name (the case identity a host reports).
    pub(crate) fn automaton_name(&self) -> &str {
        self.automaton.name()
    }

    /// Namespaces every timer tag this engine will ever allocate, so
    /// two versions hosted on one simulated host never collide in the
    /// shared timer space. Must be called before the engine arms its
    /// first timer.
    pub(crate) fn set_timer_tag_base(&mut self, base: u64) {
        debug_assert!(self.next_timer_tag == 0, "tag base set after timers were armed");
        self.next_timer_tag = base;
    }

    /// Whether `datagram` belongs to one of this engine's **live**
    /// sessions — the drain-routing probe: a draining version claims
    /// only traffic for exchanges it already owns (retransmissions,
    /// legacy replies); everything fresh routes to the active version.
    ///
    /// `&mut` only for the fused path's scratch parse record; the
    /// engine's observable state is untouched.
    pub(crate) fn owns_datagram(&mut self, datagram: &Datagram) -> bool {
        let Some(part_index) = self.part_for_datagram(datagram) else { return false };
        if let Some(rt) = self.fused.as_deref_mut() {
            if rt.sessions.is_empty() {
                return false;
            }
            let source_side = part_index == rt.plan.source_part();
            let parsed = if source_side {
                rt.plan.source_plan().parse(&datagram.payload, &mut rt.parse_rec)
            } else {
                rt.plan.target_plan().parse(&datagram.payload, &mut rt.parse_rec)
            };
            let Ok(message) = parsed else { return false };
            if source_side {
                if message != rt.plan.req_in() {
                    return false;
                }
                let key = rt
                    .plan
                    .req_in_id()
                    .and_then(|slot| correlation_id(&rt.parse_rec, slot))
                    .map(|id| SessionKey::Correlated(rt.plan.source_part(), id))
                    .unwrap_or_else(|| SessionKey::Peer(datagram.from.clone()));
                let key = self.aliases.get(&key).cloned().unwrap_or(key);
                return rt.sessions.contains_key(&key);
            }
            if message != rt.plan.resp_in() {
                return false;
            }
            if let Some(slot) = rt.plan.resp_in_id() {
                if let Some(id) = correlation_id(&rt.parse_rec, slot) {
                    let key = SessionKey::Correlated(rt.plan.target_part(), id);
                    let key = self.aliases.get(&key).cloned().unwrap_or(key);
                    return rt.sessions.contains_key(&key);
                }
            }
            // No correlation id: the live path would hand the reply to
            // the oldest waiting session, so any live session claims it.
            return true;
        }
        let Ok(message) = self.codecs[part_index].parse(&datagram.payload) else {
            return false;
        };
        matches!(self.route_inbound(part_index, &message, &datagram.from), Route::Existing(_))
    }

    /// Whether an accepted TCP connection on `local_port` from `peer`
    /// pairs with one of this engine's waiting sessions — mirrors the
    /// matching predicate of [`Actor::on_tcp`]'s `Accepted` arm.
    pub(crate) fn wants_accept(&self, local_port: u16, peer: &SimAddr) -> bool {
        let Some(part_index) = self.part_for_listener(local_port) else { return false };
        self.sessions.values().any(|s| {
            s.exec.current().part.0 == part_index
                && s.parts[part_index].server_conn.is_none()
                && s.parts
                    .iter()
                    .any(|p| p.reply_to.as_ref().is_some_and(|addr| addr.host == peer.host))
        })
    }

    /// Whether `conn` is owned by one of this engine's sessions.
    pub(crate) fn owns_conn(&self, conn: ConnId) -> bool {
        self.conn_sessions.contains_key(&conn)
    }

    /// Whether `tag` belongs to one of this engine's pending timers.
    pub(crate) fn owns_timer(&self, tag: u64) -> bool {
        self.timer_sessions.contains_key(&tag) || self.retry_sessions.contains_key(&tag)
    }
}

impl Actor for BridgeEngine {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Bind every colour of every part: UDP ports + multicast groups
        // for datagram protocols, listeners for stream protocols.
        let mut bound: BTreeSet<u16> = BTreeSet::new();
        for part in self.automaton.parts() {
            for color in part.colors() {
                match color.transport() {
                    Transport::Udp => {
                        if bound.insert(color.port()) {
                            if let Err(err) = ctx.bind_udp(color.port()) {
                                ctx.record(TraceEvent::BridgeBindFailed { error: err.to_string() });
                            }
                        }
                        if let Some(group) = color.group() {
                            ctx.join_group(SimAddr::new(group, color.port()));
                        }
                    }
                    Transport::Tcp => {
                        ctx.listen_tcp(color.port());
                    }
                }
            }
        }
        ctx.record(TraceEvent::BridgeDeployed { name: self.automaton.name().to_owned() });
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        if let Some(mut rt) = self.fused.take() {
            self.fused_datagram(ctx, &mut rt, datagram);
            self.fused = Some(rt);
            return;
        }
        let Some(part_index) = self.part_for_datagram(&datagram) else {
            ctx.record(TraceEvent::NoPart { to: datagram.to });
            return;
        };
        let parsed = self.codecs[part_index].parse(&datagram.payload);
        let message = match parsed {
            Ok(message) => message,
            Err(err) => {
                self.stats.record_error(format!("parse on part #{part_index}: {err}"));
                ctx.record(TraceEvent::ParseFailed { error: err.to_string() });
                return;
            }
        };
        match self.route_inbound(part_index, &message, &datagram.from) {
            Route::Existing(key) => {
                let mut session = self.sessions.remove(&key).expect("routed to live session");
                // The reply address and activity clock follow the sender
                // only when the execution accepts the message; a rejected
                // duplicate or spoofed datagram must neither hijack where
                // replies go nor keep deferring the idle expiry of a
                // session that is otherwise dead.
                let previous_reply_to = session.parts[part_index].reply_to.replace(datagram.from);
                let previous_activity = session.last_activity;
                session.last_activity = ctx.now();
                if !self.deliver(ctx, &key, &mut session, message) {
                    session.parts[part_index].reply_to = previous_reply_to;
                    session.last_activity = previous_activity;
                }
                self.conclude(ctx, key, session);
            }
            Route::Fresh(key) => {
                self.open_session(ctx, key, part_index, datagram.from.clone(), message);
            }
        }
    }

    fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Accepted { conn, peer, local_port } => {
                let Some(part_index) = self.part_for_listener(local_port) else {
                    ctx.record(TraceEvent::NoListener { port: local_port });
                    return;
                };
                // Correlate the connection with the session that told
                // this peer to connect: the oldest session resting in the
                // listening part whose recorded originator shares the
                // peer's host and whose part slot is still free — a
                // session already serving one accepted connection must
                // not have it overwritten by a second same-host connect
                // (that one pairs with the next waiting session instead).
                // Anything else *originates* its own session — grafting
                // an unmatched peer onto a waiting session would hand one
                // client's exchange to a stranger (peers whose connect
                // address genuinely differs from their datagram address
                // need a `SessionCorrelator`).
                let matched = self
                    .sessions
                    .iter()
                    .filter(|(_, s)| {
                        s.exec.current().part.0 == part_index
                            && s.parts[part_index].server_conn.is_none()
                            && s.parts.iter().any(|p| {
                                p.reply_to.as_ref().is_some_and(|addr| addr.host == peer.host)
                            })
                    })
                    .min_by_key(|(_, s)| s.seq)
                    .map(|(key, _)| key.clone());
                let key = matched.clone().unwrap_or(SessionKey::Conn(conn));
                ctx.record(TraceEvent::Accepted { key, peer, part: part_index });
                match matched {
                    Some(key) => {
                        let mut session = self.sessions.remove(&key).expect("matched live session");
                        session.parts[part_index].server_conn = Some(conn);
                        session.conns.push(conn);
                        session.last_activity = ctx.now();
                        self.conn_sessions.insert(conn, (key.clone(), part_index));
                        self.sessions.insert(key, session);
                    }
                    None => {
                        let key = SessionKey::Conn(conn);
                        let mut session = self.fresh_session(ctx.now());
                        session.parts[part_index].server_conn = Some(conn);
                        session.conns.push(conn);
                        self.conn_sessions.insert(conn, (key.clone(), part_index));
                        self.stats.record_session_started();
                        self.arm_expiry(ctx, &key, &mut session);
                        self.sessions.insert(key, session);
                    }
                }
            }
            TcpEvent::Connected { conn, .. } => {
                let Some((key, part_index)) = self.conn_sessions.get(&conn).cloned() else {
                    return;
                };
                let Some(mut session) = self.sessions.remove(&key) else { return };
                session.last_activity = ctx.now();
                while let Some(payload) = session.parts[part_index].pending_out.pop_front() {
                    if let Err(err) = ctx.tcp_send(conn, payload) {
                        // A lost handshake-buffered request condemns the
                        // session like any other emit failure.
                        self.stats.record_error(format!("flush on connect: {err}"));
                        session.failed = true;
                        break;
                    }
                }
                self.conclude(ctx, key, session);
            }
            TcpEvent::Data { conn, payload } => {
                let Some((key, part_index)) = self.conn_sessions.get(&conn).cloned() else {
                    return;
                };
                self.buffers.entry(conn).or_default().extend_from_slice(&payload);
                let Some(mut session) = self.sessions.remove(&key) else { return };
                session.last_activity = ctx.now();
                self.drain_stream(ctx, &key, &mut session, conn, part_index);
                self.conclude(ctx, key, session);
            }
            TcpEvent::Closed { conn } => {
                if let Some((key, part_index)) = self.conn_sessions.remove(&conn) {
                    if let Some(session) = self.sessions.get_mut(&key) {
                        let part = &mut session.parts[part_index];
                        if part.server_conn == Some(conn) {
                            part.server_conn = None;
                        }
                        if part.client_conn == Some(conn) {
                            part.client_conn = None;
                        }
                        session.conns.retain(|c| *c != conn);
                    }
                }
                self.buffers.remove(&conn);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if self.retry_sessions.contains_key(&tag) {
            self.on_retry_timer(ctx, tag);
            return;
        }
        if let Some(mut rt) = self.fused.take() {
            self.fused_timer(ctx, &mut rt, tag);
            self.fused = Some(rt);
            return;
        }
        let Some(key) = self.timer_sessions.remove(&tag) else { return };
        let Some(mut session) = self.sessions.remove(&key) else { return };
        session.timer = None;
        let deadline = session.last_activity + self.config.idle_timeout;
        if ctx.now() >= deadline {
            self.unlink(ctx, &mut session);
            self.stats.record_session_expired();
            let idle = ctx.now().since(session.last_activity);
            ctx.record(TraceEvent::SessionExpired { key, idle });
        } else {
            // Activity since the timer was armed: re-arm for the
            // remaining idle window.
            let remaining = deadline.since(ctx.now());
            let new_tag = self.next_timer_tag;
            self.next_timer_tag += 1;
            let id = ctx.set_timer(remaining, new_tag);
            self.timer_sessions.insert(new_tag, key.clone());
            session.timer = Some((id, new_tag));
            self.sessions.insert(key, session);
        }
    }
}
