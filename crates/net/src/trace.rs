//! The typed event stream: everything the simulator, the bridge engine
//! and the control plane report is one [`TraceEvent`], stamped with its
//! virtual time and recorded into a fixed-capacity [`TraceRing`].
//!
//! Events hold their data (addresses, ids, sizes), not text: recording
//! one clones a few reference-counted host names and never formats.
//! Text is rendered only where it is read — [`crate::SimNet::trace_text`]
//! for determinism tests, the `/trace` export page for operators — and
//! renders byte for byte what the simulator used to write as free text.

use crate::addr::SimAddr;
use crate::sim::ConnId;
use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Capacity of a trace ring: the most recent events a simulation
/// retains (older ones are dropped and counted). The metrics hub bounds
/// its export log by the same constant.
pub const TRACE_CAP: usize = 4096;

/// Identity of a bridge session: who originated the interaction.
///
/// Hashable so the session table (and the sharded runtime's shard
/// pinning) can use fast hash maps instead of ordered trees.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SessionKey {
    /// A UDP-originated session, keyed by the originator's endpoint.
    Peer(SimAddr),
    /// A TCP-originated session, keyed by the accepted connection.
    Conn(ConnId),
    /// A correlator-derived key: (part index, protocol-level id), e.g.
    /// an SLP XID or DNS transaction id.
    Correlated(usize, u64),
}

impl fmt::Display for SessionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionKey::Peer(addr) => write!(f, "peer {addr}"),
            SessionKey::Conn(conn) => write!(f, "conn #{}", conn.0),
            SessionKey::Correlated(part, id) => write!(f, "part#{part} id {id:#x}"),
        }
    }
}

/// The receiving end of one link traversal: the addressed endpoint,
/// plus the physical member host when a multicast fan-out delivers to a
/// group member (each member's link is impaired separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkEnd {
    /// The endpoint as addressed (a group for multicast).
    pub to: SimAddr,
    /// The receiving member host, when it differs from `to.host`.
    pub member: Option<Arc<str>>,
}

impl fmt::Display for LinkEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.member {
            Some(member) => write!(f, "{} (member {member})", self.to),
            None => write!(f, "{}", self.to),
        }
    }
}

/// What happened to one datagram on one link traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// Dropped: the pass schedule had the link closed.
    PassClosed,
    /// Dropped: a partition separates the two hosts.
    PartitionDrop,
    /// Dropped by the loss knob.
    Drop,
    /// Duplicated: one extra copy is delivered.
    Dup,
    /// A copy deferred beyond its modelled latency.
    Delay(SimDuration),
    /// A copy of this many bytes entered a bandwidth-shared link.
    BwStart(usize),
    /// A copy finished transmitting through a bandwidth-shared link.
    BwDone,
}

/// Which egress leg of a store-and-forward session an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// An interpreted session's UDP egress leg.
    Egress,
    /// A fused session's forward query.
    Query,
    /// A fused session's translated reply.
    Reply,
}

/// The export class of an event, read off its variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Control-plane events (deploy, drain, reap, unrouted traffic).
    Control,
    /// Impairments: chaos drops, duplicates, delays, corruption,
    /// partitions and closed passes.
    Impairment,
    /// Bridge engine session events.
    Session,
    /// Wire traffic: UDP, TCP and bandwidth-link transmissions.
    Wire,
    /// Free-text notes from protocol actors and tests.
    Event,
}

impl TraceKind {
    /// Every kind, in export order (which is also declaration order,
    /// so `kind as usize` indexes per-kind tables).
    pub const ALL: [TraceKind; 5] = [
        TraceKind::Control,
        TraceKind::Impairment,
        TraceKind::Session,
        TraceKind::Wire,
        TraceKind::Event,
    ];

    /// The kind's export name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Control => "control",
            TraceKind::Impairment => "impairment",
            TraceKind::Session => "session",
            TraceKind::Wire => "wire",
            TraceKind::Event => "event",
        }
    }
}

/// One event of the trace. [`fmt::Display`] renders the line the
/// simulator has always written for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A unicast datagram delivered to a bound port.
    Udp {
        /// Sender.
        from: SimAddr,
        /// Destination.
        to: SimAddr,
        /// Payload size.
        bytes: usize,
    },
    /// A unicast datagram to a port nobody bound (dropped).
    UdpUnbound {
        /// Sender.
        from: SimAddr,
        /// Destination.
        to: SimAddr,
    },
    /// A datagram sent to a multicast group.
    UdpMulticast {
        /// Sender.
        from: SimAddr,
        /// The group endpoint.
        group: SimAddr,
        /// Payload size.
        bytes: usize,
        /// In-simulation members it fans out to.
        members: usize,
    },
    /// A unicast datagram leaving the simulation.
    UdpEgress {
        /// Sender.
        from: SimAddr,
        /// The external destination.
        to: SimAddr,
        /// Payload size.
        bytes: usize,
    },
    /// A multicast datagram leaving towards one external group member.
    UdpEgressMember {
        /// Sender.
        from: SimAddr,
        /// The external member.
        member: SimAddr,
        /// The group endpoint.
        group: SimAddr,
    },
    /// One impaired (or bandwidth-shared) link traversal.
    Link {
        /// What happened to the datagram.
        fate: LinkFate,
        /// Sender.
        from: SimAddr,
        /// Receiving end.
        to: LinkEnd,
    },
    /// A datagram copy had one byte corrupted.
    Corrupt {
        /// Sender.
        from: SimAddr,
        /// Destination.
        to: SimAddr,
        /// `(index, xor mask)` of the flipped byte; `None` for an empty
        /// payload, left untouched.
        flip: Option<(usize, u8)>,
    },
    /// Two hosts were partitioned.
    Partition {
        /// One host of the pair.
        a: Arc<str>,
        /// The other host.
        b: Arc<str>,
        /// Heal time; `None` until explicitly healed.
        until: Option<SimTime>,
    },
    /// A partition healed.
    PartitionHealed {
        /// One host of the pair.
        a: Arc<str>,
        /// The other host.
        b: Arc<str>,
    },
    /// A TCP connect refused by an active partition.
    TcpRefused {
        /// The initiating host.
        from: Arc<str>,
        /// The initiating port, for connections from outside the
        /// simulation.
        port: Option<u16>,
        /// The listener.
        to: SimAddr,
    },
    /// A TCP connection opened.
    TcpConnect {
        /// The connection.
        conn: ConnId,
        /// Initiator.
        from: SimAddr,
        /// Listener.
        to: SimAddr,
        /// Whether the initiator lives outside the simulation.
        external: bool,
    },
    /// Stream data sent on a connection.
    TcpData {
        /// The connection.
        conn: ConnId,
        /// Sending host.
        from: Arc<str>,
        /// Receiving host.
        to: Arc<str>,
        /// Payload size.
        bytes: usize,
    },
    /// A connection closed by one side.
    TcpClose {
        /// The connection.
        conn: ConnId,
        /// The closing host.
        by: Arc<str>,
    },
    /// A control payload for a host that runs no actor (dropped).
    ControlUnknownHost {
        /// The addressed host.
        host: String,
    },
    /// A bridge version was installed on a host.
    ControlDeployed {
        /// The bridge's automaton name.
        name: String,
        /// Its version.
        version: u64,
        /// Versions hosted after the install.
        coexisting: usize,
    },
    /// A bridge version stopped taking fresh sessions.
    ControlDraining {
        /// The bridge's automaton name.
        name: String,
        /// Its version.
        version: u64,
        /// Sessions still live on it.
        in_flight: usize,
    },
    /// A drained bridge version was reaped.
    ControlReaped {
        /// The bridge's automaton name.
        name: String,
        /// Its version.
        version: u64,
    },
    /// Fresh traffic arrived with no active version to take it.
    ControlUnrouted {
        /// What was dropped (`datagram`, `tcp accept`).
        what: &'static str,
    },
    /// A control payload of a type the host does not understand.
    ControlUnknownPayload,
    /// An undeploy named a version the host does not run.
    ControlUnknownVersion {
        /// The unknown version.
        version: u64,
    },
    /// A bridge engine started serving.
    BridgeDeployed {
        /// The bridge's automaton name.
        name: String,
    },
    /// A bridge engine could not bind one of its ports.
    BridgeBindFailed {
        /// The bind error.
        error: String,
    },
    /// A datagram arrived where no part of the bridge listens.
    NoPart {
        /// Its destination.
        to: SimAddr,
    },
    /// A connection arrived on a port no part of the bridge listens on.
    NoListener {
        /// The local port.
        port: u16,
    },
    /// A datagram failed to parse.
    ParseFailed {
        /// The parse error.
        error: String,
    },
    /// A well-formed message the fused relay never consumes there.
    UnexpectedMessage {
        /// The message name.
        name: String,
    },
    /// A retransmitted request for a session still awaiting its answer.
    DuplicateRequest {
        /// The live session.
        key: SessionKey,
    },
    /// A response no session awaits.
    UnmatchedResponse,
    /// A session's execution rejected a delivered message.
    Rejected {
        /// The session.
        key: SessionKey,
        /// Why the delivery was rejected.
        error: String,
    },
    /// The bridge accepted a TCP connection.
    Accepted {
        /// The session the connection joined or opened.
        key: SessionKey,
        /// The connecting peer.
        peer: SimAddr,
        /// The listening part.
        part: usize,
    },
    /// A `set_host` λ action pointed a session's next leg.
    SetHost {
        /// The session.
        key: SessionKey,
        /// The target endpoint.
        target: SimAddr,
    },
    /// A custom λ action the engine does not interpret.
    CustomAction {
        /// The session.
        key: SessionKey,
        /// The action name.
        name: String,
    },
    /// A translated message failed the ⊨ check and was not sent.
    RefusedSend {
        /// The session.
        key: SessionKey,
        /// The message name.
        message: String,
        /// The unfilled mandatory fields, as reported by the
        /// interpreted engine (`None` on the fused path).
        unfilled: Option<String>,
    },
    /// A message failed to compose.
    ComposeFailed {
        /// The session.
        key: SessionKey,
        /// The message name.
        message: String,
        /// The compose error.
        error: String,
    },
    /// A composed message failed to leave.
    EmitFailed {
        /// The session.
        key: SessionKey,
        /// The message name.
        message: String,
        /// The emit error.
        error: String,
    },
    /// A duplicate query answered from the answer cache.
    CacheHit {
        /// The exchange's key.
        key: SessionKey,
    },
    /// A duplicate query answered from a wire-level replay template.
    CacheReplay {
        /// The requester.
        key: SessionKey,
    },
    /// A store-and-forward leg parked until its link heals.
    Parked {
        /// The session.
        key: SessionKey,
        /// Which leg.
        leg: Leg,
        /// Legs queued after parking this one.
        queued: usize,
    },
    /// A store-and-forward leg refused at a full queue.
    QueueOverflow {
        /// The session.
        key: SessionKey,
        /// Which leg.
        leg: Leg,
    },
    /// A parked leg retransmitted once its link opened.
    Replayed {
        /// The session.
        key: SessionKey,
    },
    /// A session gave up on its parked legs after the retry budget.
    GaveUp {
        /// The session.
        key: SessionKey,
        /// Legs abandoned.
        legs: usize,
    },
    /// A TCP leg buffered more than the reassembly cap without holding
    /// one complete message; its session failed.
    StreamOverflow {
        /// The session.
        key: SessionKey,
        /// The connection.
        conn: ConnId,
        /// Bytes buffered when the cap was crossed.
        buffered: usize,
    },
    /// A session completed.
    SessionComplete {
        /// The session.
        key: SessionKey,
        /// Time from its first message to its last send.
        elapsed: SimDuration,
    },
    /// A session failed and was torn down.
    SessionFailed {
        /// The session.
        key: SessionKey,
    },
    /// A session idle-expired.
    SessionExpired {
        /// The session.
        key: SessionKey,
        /// How long it had been idle.
        idle: SimDuration,
    },
    /// Free text, from protocol actors and tests. A `&'static str`
    /// records without allocating.
    Note(Cow<'static, str>),
}

impl TraceEvent {
    /// The event's export class.
    pub fn kind(&self) -> TraceKind {
        use TraceEvent::*;
        match self {
            Udp { .. }
            | UdpUnbound { .. }
            | UdpMulticast { .. }
            | UdpEgress { .. }
            | UdpEgressMember { .. }
            | TcpConnect { .. }
            | TcpData { .. }
            | TcpClose { .. } => TraceKind::Wire,
            Link { fate: LinkFate::BwStart(_) | LinkFate::BwDone, .. } => TraceKind::Wire,
            Link { .. } | Corrupt { .. } | Partition { .. } | PartitionHealed { .. } => {
                TraceKind::Impairment
            }
            TcpRefused { .. } => TraceKind::Impairment,
            ControlUnknownHost { .. }
            | ControlDeployed { .. }
            | ControlDraining { .. }
            | ControlReaped { .. }
            | ControlUnrouted { .. }
            | ControlUnknownPayload
            | ControlUnknownVersion { .. } => TraceKind::Control,
            Note(_) => TraceKind::Event,
            _ => TraceKind::Session,
        }
    }

    /// The bridge session the event belongs to, when it has one.
    pub fn session(&self) -> Option<&SessionKey> {
        use TraceEvent::*;
        match self {
            DuplicateRequest { key }
            | Rejected { key, .. }
            | Accepted { key, .. }
            | SetHost { key, .. }
            | CustomAction { key, .. }
            | RefusedSend { key, .. }
            | ComposeFailed { key, .. }
            | EmitFailed { key, .. }
            | CacheHit { key }
            | CacheReplay { key }
            | Parked { key, .. }
            | QueueOverflow { key, .. }
            | Replayed { key }
            | GaveUp { key, .. }
            | StreamOverflow { key, .. }
            | SessionComplete { key, .. }
            | SessionFailed { key }
            | SessionExpired { key, .. } => Some(key),
            _ => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceEvent::*;
        match self {
            Udp { from, to, bytes } => write!(f, "udp {from} -> {to} ({bytes} bytes)"),
            UdpUnbound { from, to } => write!(f, "udp {from} -> {to} dropped (no binding)"),
            UdpMulticast { from, group, bytes, members } => {
                write!(f, "udp multicast {from} -> {group} ({bytes} bytes, {members} members)")
            }
            UdpEgress { from, to, bytes } => write!(f, "udp egress {from} -> {to} ({bytes} bytes)"),
            UdpEgressMember { from, member, group } => {
                write!(f, "udp egress {from} -> {member} (group {group})")
            }
            Link { fate, from, to } => {
                let what = match fate {
                    LinkFate::PassClosed => "pass closed",
                    LinkFate::PartitionDrop => "chaos partition drop",
                    LinkFate::Drop => "chaos drop",
                    LinkFate::Dup => "chaos dup",
                    LinkFate::Delay(_) => "chaos delay",
                    LinkFate::BwStart(_) => "bw start",
                    LinkFate::BwDone => "bw done",
                };
                write!(f, "{what} {from} -> {to}")?;
                match fate {
                    LinkFate::Delay(extra) => write!(f, " +{extra}"),
                    LinkFate::BwStart(bytes) => write!(f, " ({bytes} bytes)"),
                    _ => Ok(()),
                }
            }
            Corrupt { from, to, flip: None } => {
                write!(f, "chaos corrupt {from} -> {to} (empty payload, untouched)")
            }
            Corrupt { from, to, flip: Some((index, mask)) } => {
                write!(f, "chaos corrupt {from} -> {to} [{index}] ^{mask:#04x}")
            }
            Partition { a, b, until: Some(at) } => {
                write!(f, "chaos partition {a} <-> {b} until {at}")
            }
            Partition { a, b, until: None } => {
                write!(f, "chaos partition {a} <-> {b} until healed")
            }
            PartitionHealed { a, b } => write!(f, "chaos partition healed {a} <-> {b}"),
            TcpRefused { from, port, to } => {
                write!(f, "chaos partition refused tcp {from}")?;
                if let Some(port) = port {
                    write!(f, ":{port}")?;
                }
                write!(f, " -> {to}")
            }
            TcpConnect { conn, from, to, external } => {
                let external = if *external { " (external)" } else { "" };
                write!(f, "tcp connect{external} {from} -> {to} (#{})", conn.0)
            }
            TcpData { conn, from, to, bytes } => {
                write!(f, "tcp data #{} {from} -> {to} ({bytes} bytes)", conn.0)
            }
            TcpClose { conn, by } => write!(f, "tcp close #{} by {by}", conn.0),
            ControlUnknownHost { host } => {
                write!(f, "control payload for unknown host {host} dropped")
            }
            ControlDeployed { name, version, coexisting } => {
                write!(f, "control: deployed {name} v{version} ({coexisting} coexisting)")
            }
            ControlDraining { name, version, in_flight } => {
                write!(f, "control: draining {name} v{version} ({in_flight} sessions in flight)")
            }
            ControlReaped { name, version } => {
                write!(f, "control: reaped {name} v{version} (drained)")
            }
            ControlUnrouted { what } => {
                write!(f, "control: dropped unrouted {what} (no active version)")
            }
            ControlUnknownPayload => f.write_str("control: dropped payload of unknown type"),
            ControlUnknownVersion { version } => {
                write!(f, "control: undeploy of unknown version {version}")
            }
            BridgeDeployed { name } => write!(f, "bridge {name} deployed"),
            BridgeBindFailed { error } => write!(f, "bridge bind failed: {error}"),
            NoPart { to } => write!(f, "bridge: no part for datagram to {to}"),
            NoListener { port } => write!(f, "bridge: no part listens on port {port}"),
            ParseFailed { error } => write!(f, "bridge failed to parse datagram: {error}"),
            UnexpectedMessage { name } => write!(f, "bridge dropped unexpected {name}"),
            DuplicateRequest { key } => write!(f, "bridge dropped duplicate request for {key}"),
            UnmatchedResponse => f.write_str("bridge dropped unmatched response"),
            Rejected { error, .. } => write!(f, "bridge dropped message: {error}"),
            Accepted { peer, part, .. } => write!(f, "bridge accepted {peer} on part #{part}"),
            SetHost { target, .. } => {
                write!(f, "bridge λ set_host({}, {})", target.host, target.port)
            }
            CustomAction { name, .. } => {
                write!(f, "bridge λ {name}(..) (no engine interpretation)")
            }
            RefusedSend { message, unfilled: None, .. } => {
                write!(f, "bridge refused to send {message}")
            }
            RefusedSend { message, unfilled: Some(fields), .. } => {
                write!(f, "bridge refused to send {message}: mandatory fields {fields} unfilled")
            }
            ComposeFailed { message, error, .. } => {
                write!(f, "bridge failed to compose {message}: {error}")
            }
            EmitFailed { message, error, .. } => write!(f, "bridge failed to emit {message}: {error}"),
            CacheHit { .. } => f.write_str("bridge served reply from the answer cache"),
            CacheReplay { .. } => f.write_str("bridge replayed cached reply for duplicate query"),
            Parked { key, leg: Leg::Egress, queued } => {
                write!(f, "bridge parked egress leg for {key} ({queued} queued)")
            }
            Parked { key, leg: Leg::Query, queued } => {
                write!(f, "bridge parked forward query for {key} ({queued} queued)")
            }
            Parked { key, leg: Leg::Reply, .. } => {
                write!(f, "bridge parked reply for {key} until the link heals")
            }
            QueueOverflow { key, leg: Leg::Egress } => {
                write!(f, "bridge queue overflow: egress leg for {key} refused")
            }
            QueueOverflow { leg: Leg::Query, .. } => {
                f.write_str("bridge queue overflow: forward query refused")
            }
            QueueOverflow { key, leg: Leg::Reply } => {
                write!(f, "bridge queue overflow: reply leg for {key} refused")
            }
            Replayed { key } => write!(f, "bridge replayed parked leg for {key}"),
            GaveUp { key, legs } => write!(f, "bridge gave up on {legs} parked legs for {key}"),
            StreamOverflow { key, conn, buffered } => write!(
                f,
                "bridge session {key}: conn #{} buffered {buffered} bytes without a complete message",
                conn.0
            ),
            SessionComplete { elapsed, .. } => write!(f, "bridge session complete in {elapsed}"),
            SessionFailed { key } => write!(f, "bridge session {key} failed and was torn down"),
            SessionExpired { key, idle } => {
                write!(f, "bridge session {key} expired after {idle} idle")
            }
            Note(text) => f.write_str(text),
        }
    }
}

/// One recorded event with the virtual time it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event was recorded.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

/// Iterator over retained trace entries, oldest first.
pub type TraceIter<'a> = std::collections::vec_deque::Iter<'a, TraceEntry>;

/// A fixed-capacity ring of the most recent [`TRACE_CAP`] events.
///
/// Storage grows on demand up to the capacity; once full, each new
/// event overwrites the oldest, which costs no allocation. Every event
/// ever recorded has a sequence number (`0, 1, 2, …`), so a consumer
/// streaming the ring can tell how many events it missed.
#[derive(Debug, Default)]
pub struct TraceRing {
    entries: VecDeque<TraceEntry>,
    recorded: u64,
}

impl TraceRing {
    /// Appends one entry, dropping the oldest when the ring is full.
    pub(crate) fn push(&mut self, entry: TraceEntry) {
        if self.entries.len() == TRACE_CAP {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
        self.recorded += 1;
    }

    /// Entries retained (at most [`TRACE_CAP`]); never decreases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Events recorded since the simulation began; also the sequence
    /// number the next event will get.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.entries.len() as u64
    }

    /// The retained entries, oldest first.
    pub fn iter(&self) -> TraceIter<'_> {
        self.entries.iter()
    }

    /// The entries with sequence numbers `>= seq` that are still
    /// retained, plus how many of those events were already
    /// overwritten.
    pub fn since(&self, seq: u64) -> (u64, TraceIter<'_>) {
        let first = self.dropped();
        let lost = first.saturating_sub(seq);
        let skip = seq.saturating_sub(first).min(self.entries.len() as u64) as usize;
        (lost, self.entries.range(skip..))
    }
}

impl<'a> IntoIterator for &'a TraceRing {
    type Item = &'a TraceEntry;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(at: u64) -> TraceEntry {
        TraceEntry { at: SimTime::from_micros(at), event: TraceEvent::Note(Cow::Borrowed("n")) }
    }

    #[test]
    fn ring_keeps_the_newest_entries_and_counts_the_rest() {
        let mut ring = TraceRing::default();
        for at in 0..(TRACE_CAP as u64 + 10) {
            ring.push(note(at));
        }
        assert_eq!(ring.len(), TRACE_CAP);
        assert_eq!(ring.recorded(), TRACE_CAP as u64 + 10);
        assert_eq!(ring.dropped(), 10);
        assert_eq!(ring.iter().next().map(|e| e.at.as_micros()), Some(10));

        // A reader at seq 5 missed 5 overwritten events and sees all
        // retained ones; a reader at seq 20 sees only the newer ones.
        let (lost, fresh) = ring.since(5);
        assert_eq!((lost, fresh.len()), (5, TRACE_CAP));
        let (lost, fresh) = ring.since(20);
        assert_eq!((lost, fresh.len()), (0, TRACE_CAP - 10));
        let (lost, fresh) = ring.since(ring.recorded());
        assert_eq!((lost, fresh.len()), (0, 0));
    }

    #[test]
    fn events_render_their_historic_text() {
        let a = SimAddr::new("10.0.0.1", 5000);
        let group = SimAddr::new("239.255.255.253", 427);
        let member = LinkEnd { to: group.clone(), member: Some(Arc::from("10.0.0.3")) };
        let cases = [
            (
                TraceEvent::Link {
                    fate: LinkFate::Delay(SimDuration::from_micros(1500)),
                    from: a.clone(),
                    to: member,
                },
                "chaos delay 10.0.0.1:5000 -> 239.255.255.253:427 (member 10.0.0.3) +1.500ms",
            ),
            (
                TraceEvent::Corrupt { from: a.clone(), to: group.clone(), flip: Some((3, 0x0f)) },
                "chaos corrupt 10.0.0.1:5000 -> 239.255.255.253:427 [3] ^0x0f",
            ),
            (
                TraceEvent::TcpRefused {
                    from: Arc::from("10.0.0.1"),
                    port: None,
                    to: group.clone(),
                },
                "chaos partition refused tcp 10.0.0.1 -> 239.255.255.253:427",
            ),
            (
                TraceEvent::TcpConnect {
                    conn: ConnId(4),
                    from: a.clone(),
                    to: group,
                    external: true,
                },
                "tcp connect (external) 10.0.0.1:5000 -> 239.255.255.253:427 (#4)",
            ),
            (
                TraceEvent::SessionFailed { key: SessionKey::Correlated(0, 0x1234) },
                "bridge session part#0 id 0x1234 failed and was torn down",
            ),
        ];
        for (event, text) in cases {
            assert_eq!(event.to_string(), text);
        }
    }
}
