//! The deterministic discrete-event network simulator.
//!
//! Hosts are [`Actor`]s reacting to datagrams, TCP events and timers; the
//! simulator owns a single virtual clock and a totally ordered event
//! queue, so a seeded run replays bit-identically. This is the substrate
//! on which the legacy protocol endpoints and the Starlink bridge of the
//! evaluation (§V/§VI) execute.

use crate::addr::SimAddr;
use crate::error::{NetError, Result};
use crate::latency::LatencyModel;
use crate::time::{SimDuration, SimTime};
use crate::trace::{LinkEnd, LinkFate, TraceEntry, TraceEvent, TraceRing};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

/// A seeded, fully deterministic network-impairment profile, applied at
/// delivery time on every datagram *link traversal*: in-simulation
/// deliveries, datagrams injected from outside
/// ([`SimNet::inject_datagram`]) and datagrams queued for external
/// endpoints (egress). Any run is exactly reproducible from
/// `(seed, profile)`: impairment decisions are drawn from a dedicated
/// RNG stream (seeded alongside the simulation's), and an inert profile
/// makes **zero** draws and costs one branch per delivery, replaying
/// bit-identically to a run that never heard of impairments. (Active
/// profiles still shift the *latency* stream indirectly — a dropped
/// datagram samples no delivery latency and a duplicate samples one per
/// copy — so runs are comparable per `(seed, profile)` pair, not across
/// profiles.)
///
/// Semantics per traversal, in decision order:
///
/// 1. an active partition between the two hosts drops the datagram;
/// 2. with `partition_permille`, the host pair *enters* a partition for
///    `partition_window` (healing automatically) and the datagram is its
///    first casualty;
/// 3. with `drop_permille`, the datagram is dropped;
/// 4. with `duplicate_permille`, one extra copy is delivered;
/// 5. every copy gains uniform jitter in `[0, jitter]`, plus — with
///    `reorder_permille` — an extra uniform deferral in
///    `[1µs, reorder_window]` (bounded reordering: the event queue is
///    time-ordered, so a deferred copy overtakes nothing later than the
///    window);
/// 6. with `corrupt_permille`, one payload byte of a copy is XOR-flipped.
///
/// Deferrals are meaningless once bytes leave the virtual network, so
/// egress traversals apply loss/partition/duplication/corruption but not
/// jitter/reordering. TCP models a reliable transport: established
/// connections are untouched (real TCP retransmits through loss), but
/// opening a connection across an active partition fails with
/// [`NetError::ConnectionRefused`]. Every impairment event is recorded
/// in the [`SimNet::trace`], so two runs of the same `(seed, profile)`
/// produce byte-identical traces.
///
/// ```
/// use starlink_net::{Impairments, SimDuration, SimNet};
///
/// // 10% loss + duplication with bounded reordering; everything else off.
/// let profile = Impairments {
///     drop_permille: 100,
///     duplicate_permille: 200,
///     reorder_permille: 300,
///     reorder_window: SimDuration::from_millis(2),
///     ..Impairments::none()
/// };
/// assert!(!profile.is_inert());
///
/// let mut sim = SimNet::new(7);
/// sim.set_impairments(profile);           // every link traversal now rolls the dice
/// assert!(Impairments::none().is_inert()); // the control profile draws nothing
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Impairments {
    /// Per-traversal drop probability, in permille (0–1000).
    pub drop_permille: u16,
    /// Probability that a delivered datagram is duplicated (one extra
    /// copy), in permille.
    pub duplicate_permille: u16,
    /// Probability that a copy is deferred for bounded reordering, in
    /// permille.
    pub reorder_permille: u16,
    /// Upper bound of the reordering deferral.
    pub reorder_window: SimDuration,
    /// Uniform extra delay in `[0, jitter]` added to every copy.
    pub jitter: SimDuration,
    /// Probability that one payload byte of a copy is corrupted, in
    /// permille.
    pub corrupt_permille: u16,
    /// Probability that a traversal spontaneously partitions its host
    /// pair, in permille.
    pub partition_permille: u16,
    /// How long a spontaneous partition lasts before healing.
    pub partition_window: SimDuration,
}

impl Impairments {
    /// The inert profile: nothing is impaired and the chaos RNG is never
    /// touched, so a simulation with this profile replays bit-identically
    /// to one that never heard of impairments.
    pub fn none() -> Self {
        Impairments {
            drop_permille: 0,
            duplicate_permille: 0,
            reorder_permille: 0,
            reorder_window: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            corrupt_permille: 0,
            partition_permille: 0,
            partition_window: SimDuration::ZERO,
        }
    }

    /// Whether every knob is zero (the fast-path check).
    pub fn is_inert(&self) -> bool {
        self.drop_permille == 0
            && self.duplicate_permille == 0
            && self.reorder_permille == 0
            && self.jitter == SimDuration::ZERO
            && self.corrupt_permille == 0
            && self.partition_permille == 0
    }
}

impl Default for Impairments {
    fn default() -> Self {
        Impairments::none()
    }
}

/// A deterministic satellite-style connectivity schedule: time is cut
/// into fixed windows and the schedule's slots take turns being *active*
/// — a link is open only while every non-hub endpoint's slot is the
/// active one. The optional hub host (the bridge in the chaos harness)
/// is reachable in every window, so traffic between hosts in different
/// slots must store-and-forward through it across passes.
///
/// The schedule is a pure function of the virtual clock (`active slot =
/// (now / window) % slots`): it makes **zero** RNG draws, and the inert
/// schedule ([`PassSchedule::always_open`], `window == ZERO` or a single
/// slot) costs one branch per link traversal, replaying bit-identically
/// to a simulation that never heard of passes. Closed-window traversals
/// are dropped and traced as `pass closed`. TCP is deliberately *not*
/// gated: as with [`Impairments`], TCP models a reliable transport
/// riding established connectivity, while the pass schedule models the
/// contended discovery uplink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassSchedule {
    /// Length of one connectivity window; `ZERO` disables the schedule.
    pub window: SimDuration,
    /// Number of slots taking turns (`<= 1` disables the schedule).
    pub slots: u32,
    /// The always-reachable hub host, exempt from slot gating.
    pub hub: Option<Arc<str>>,
    /// Explicit slot assignment per host; unlisted hosts use
    /// `default_slot`.
    pub assignments: BTreeMap<Arc<str>, u32>,
    /// The slot of every host without an explicit assignment.
    pub default_slot: u32,
}

impl PassSchedule {
    /// The inert schedule: every link is open in every window and the
    /// gate costs one branch per traversal.
    pub fn always_open() -> Self {
        PassSchedule {
            window: SimDuration::ZERO,
            slots: 1,
            hub: None,
            assignments: BTreeMap::new(),
            default_slot: 0,
        }
    }

    /// Whether the schedule gates nothing (the fast-path check).
    pub fn is_inert(&self) -> bool {
        self.window == SimDuration::ZERO || self.slots <= 1
    }

    /// The active slot at `now`.
    pub fn active_slot(&self, now: SimTime) -> u32 {
        if self.is_inert() {
            return 0;
        }
        ((now.as_micros() / self.window.as_micros()) % u64::from(self.slots)) as u32
    }

    /// The slot `host` lives in.
    pub fn slot_of(&self, host: &str) -> u32 {
        self.assignments.get(host).copied().unwrap_or(self.default_slot)
    }

    /// Whether the link between hosts `a` and `b` is open at `now`:
    /// every non-hub endpoint's slot must be the active one.
    pub fn open_at(&self, now: SimTime, a: &str, b: &str) -> bool {
        if self.is_inert() {
            return true;
        }
        let active = self.active_slot(now);
        let hub = self.hub.as_deref();
        for host in [a, b] {
            if Some(host) != hub && self.slot_of(host) != active {
                return false;
            }
        }
        true
    }

    /// The start of the next window in which the `a`↔`b` link is open,
    /// or `None` when the schedule can never open it (both endpoints
    /// non-hub in different slots). Used by calibrated retransmission to
    /// pace retries against the schedule instead of guessing.
    pub fn next_open(&self, now: SimTime, a: &str, b: &str) -> Option<SimTime> {
        if self.open_at(now, a, b) {
            return Some(now);
        }
        // The earliest future window whose active slot matches both
        // non-hub endpoints; one lap over the slots suffices.
        let current = now.as_micros() / self.window.as_micros();
        for lap in 1..=u64::from(self.slots) {
            let at = SimTime::from_micros((current + lap) * self.window.as_micros());
            if self.open_at(at, a, b) {
                return Some(at);
            }
        }
        None
    }
}

impl Default for PassSchedule {
    fn default() -> Self {
        PassSchedule::always_open()
    }
}

/// What chaos decided for one link traversal of one datagram.
enum Fate {
    /// Untouched: one pristine copy on the modelled schedule (also the
    /// fast path when impairments are inert and no partition exists).
    Pristine,
    /// The datagram never arrives.
    Dropped,
    /// Deliver these copies: each with an extra deferral beyond the
    /// modelled latency, and optionally one corrupted byte.
    Copies(Vec<(SimDuration, bool)>),
}

/// A UDP datagram delivered to an actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sender endpoint.
    pub from: SimAddr,
    /// Destination endpoint as addressed (multicast group or unicast).
    pub to: SimAddr,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Identifier of a simulated TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// Identifier of a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

/// TCP lifecycle events delivered to actors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// An outbound connection completed (initiator side).
    Connected {
        /// The connection.
        conn: ConnId,
        /// The accepting endpoint.
        peer: SimAddr,
    },
    /// An inbound connection arrived (listener side).
    Accepted {
        /// The connection.
        conn: ConnId,
        /// The initiating endpoint.
        peer: SimAddr,
        /// The local listening port that accepted.
        local_port: u16,
    },
    /// Stream data arrived.
    Data {
        /// The connection.
        conn: ConnId,
        /// Payload bytes.
        payload: Bytes,
    },
    /// The peer closed the connection.
    Closed {
        /// The connection.
        conn: ConnId,
    },
}

/// A simulated host's behaviour. All methods default to no-ops so actors
/// implement only what they use.
///
/// Actors are `Send` so a whole simulation can be moved onto a worker
/// thread — the sharded bridge runtime runs one single-threaded `SimNet`
/// per shard, each on its own core. Nothing here is `Sync`: within one
/// simulation, actors still execute strictly one event at a time.
pub trait Actor: Send {
    /// Called once when the simulation starts (or when the actor is added
    /// to a running simulation).
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// A datagram arrived on a bound port or joined group.
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _datagram: Datagram) {}

    /// A TCP event arrived.
    fn on_tcp(&mut self, _ctx: &mut Context<'_>, _event: TcpEvent) {}

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}

    /// An out-of-band control payload delivered via
    /// [`SimNet::deliver_control`] — the channel a live control plane
    /// uses to hand an actor new behaviour (e.g. a freshly deployed
    /// bridge version) without going over the simulated wire. The
    /// payload is opaque to the simulator; actors downcast what they
    /// understand and drop the rest (the default).
    fn on_control(&mut self, _ctx: &mut Context<'_>, _payload: Box<dyn std::any::Any + Send>) {}
}

/// Wraps an actor so its [`Actor::on_start`] runs after a delay — the
/// building block for staggered/interleaved multi-client scenarios.
///
/// The wrapper reserves timer tag `u64::MAX` for the deferred start and
/// forwards every other event to the inner actor untouched.
#[derive(Debug)]
pub struct DelayedActor<A> {
    delay: crate::time::SimDuration,
    inner: A,
    started: bool,
}

impl<A: Actor> DelayedActor<A> {
    /// Wraps `inner` so it starts `delay` after the simulation adds it.
    pub fn new(delay: crate::time::SimDuration, inner: A) -> Self {
        DelayedActor { delay, inner, started: false }
    }
}

impl<A: Actor + ?Sized> Actor for Box<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        (**self).on_start(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        (**self).on_datagram(ctx, datagram);
    }

    fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
        (**self).on_tcp(ctx, event);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        (**self).on_timer(ctx, tag);
    }

    fn on_control(&mut self, ctx: &mut Context<'_>, payload: Box<dyn std::any::Any + Send>) {
        (**self).on_control(ctx, payload);
    }
}

impl<A: Actor> Actor for DelayedActor<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.delay, u64::MAX);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        self.inner.on_datagram(ctx, datagram);
    }

    fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
        self.inner.on_tcp(ctx, event);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == u64::MAX && !self.started {
            self.started = true;
            self.inner.on_start(ctx);
        } else {
            self.inner.on_timer(ctx, tag);
        }
    }

    fn on_control(&mut self, ctx: &mut Context<'_>, payload: Box<dyn std::any::Any + Send>) {
        self.inner.on_control(ctx, payload);
    }
}

/// An open TCP connection; closing it (from either end) removes it.
#[derive(Debug)]
struct Connection {
    initiator: SimAddr,
    target: SimAddr,
}

#[derive(Debug)]
enum EventKind {
    Start,
    Datagram(Datagram),
    TcpAccepted {
        conn: u64,
        peer: SimAddr,
        local_port: u16,
    },
    TcpConnected {
        conn: u64,
        peer: SimAddr,
    },
    TcpData {
        conn: u64,
        payload: Bytes,
    },
    TcpClosed {
        conn: u64,
    },
    Timer {
        id: u64,
        tag: u64,
    },
    /// The earliest in-flight transfer on `link` finishes transmitting.
    /// Stale ticks (the link's generation moved past `gen` because a
    /// transfer joined or the link drained) are skipped without
    /// advancing the clock, exactly like cancelled timers.
    LinkTick {
        link: (Arc<str>, Arc<str>),
        gen: u64,
    },
}

/// One datagram copy in transmission through a bandwidth-shared link.
#[derive(Debug)]
struct Transfer {
    /// Unsent payload in *micro-bytes* (bytes × 1 000 000): at a link
    /// capacity of C bytes/second a transfer drains C micro-bytes per
    /// virtual microsecond of its fair share, keeping the fluid model in
    /// exact integer arithmetic.
    remaining: u64,
    /// The physical receiving host (the group member for multicast).
    to_host: Arc<str>,
    datagram: Datagram,
    /// Latency (plus chaos deferral) appended after the last byte
    /// leaves the link.
    tail: SimDuration,
    /// Egress transfers are pushed to the egress queue on completion
    /// instead of being scheduled as in-simulation deliveries.
    egress: bool,
}

/// The fair-share fluid state of one host-pair link: all in-flight
/// transfers split the link capacity equally, re-settled on every
/// transfer start and finish (the dslab `SharedBandwidthNetwork`
/// recipe).
#[derive(Debug)]
struct LinkState {
    /// When `transfers[*].remaining` was last settled.
    updated: SimTime,
    /// Bumped on every membership change; ticks carry the generation
    /// they were scheduled under so stale ones self-cancel.
    gen: u64,
    transfers: Vec<Transfer>,
}

#[derive(Debug)]
struct Event {
    at: SimTime,
    seq: u64,
    host: Arc<str>,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A TCP event leaving the simulation towards an external peer (the
/// mirror image of [`TcpEvent`] for connections whose far end is a real
/// socket or a gateway driver rather than a simulated host). Drained by
/// [`SimNet::drain_tcp_egress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExternalTcpEvent {
    /// Stream data for the external end of `conn`.
    Data {
        /// The connection.
        conn: ConnId,
        /// Payload bytes.
        payload: Bytes,
    },
    /// A simulated actor closed the connection.
    Closed {
        /// The connection.
        conn: ConnId,
    },
}

#[derive(Debug)]
struct World {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    rng: StdRng,
    latency: LatencyModel,
    udp_bindings: BTreeSet<(Arc<str>, u16)>,
    groups: BTreeMap<SimAddr, BTreeSet<Arc<str>>>,
    tcp_listeners: BTreeSet<(Arc<str>, u16)>,
    connections: BTreeMap<u64, Connection>,
    next_conn: u64,
    next_ephemeral: u16,
    next_timer: u64,
    cancelled_timers: BTreeSet<u64>,
    trace: TraceRing,
    hosts: BTreeSet<Arc<str>>,
    /// Hosts that live *outside* the simulation (real sockets behind a
    /// gateway loop). Unicast datagrams addressed to them are queued in
    /// `egress` instead of being delivered or dropped.
    external_hosts: BTreeSet<Arc<str>>,
    /// Endpoints outside the simulation that joined a multicast group;
    /// group sends fan out to them through `egress` too.
    external_group_members: BTreeMap<SimAddr, BTreeSet<SimAddr>>,
    /// Datagrams leaving the simulation, drained by the gateway loop.
    egress: Vec<Datagram>,
    /// TCP events leaving the simulation (connections whose peer is an
    /// external endpoint), drained by the gateway loop.
    tcp_egress: Vec<ExternalTcpEvent>,
    /// The impairment profile applied to every datagram link traversal.
    impairments: Impairments,
    /// Dedicated RNG stream for impairment decisions, so enabling chaos
    /// never perturbs the latency stream of the same seed.
    chaos_rng: StdRng,
    /// Active partitions: ordered host pair → heal time (`None` = until
    /// explicitly healed). Spontaneous (profile-driven) and explicit
    /// ([`SimNet::partition`]) entries share this table.
    partitions: BTreeMap<(Arc<str>, Arc<str>), Option<SimTime>>,
    /// Shared per-link capacity in bytes per second; `0` (the default)
    /// disables the bandwidth model entirely — delivery times come from
    /// the latency model alone, exactly as before the model existed.
    link_bandwidth: u64,
    /// Fair-share transmission state per ordered host pair; only links
    /// with in-flight transfers have an entry.
    links: BTreeMap<(Arc<str>, Arc<str>), LinkState>,
    /// The connectivity pass schedule (default: inert).
    pass: PassSchedule,
}

impl World {
    fn schedule(&mut self, at: SimTime, host: Arc<str>, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { at, seq, host, kind }));
    }

    fn latency(&mut self) -> SimDuration {
        self.latency.sample(&mut self.rng)
    }

    fn trace(&mut self, event: TraceEvent) {
        let at = self.now;
        self.trace.push(TraceEntry { at, event });
    }

    /// The canonical (ordered) key of a host pair in the partition table.
    fn pair_key(a: &Arc<str>, b: &Arc<str>) -> (Arc<str>, Arc<str>) {
        if a.as_ref() <= b.as_ref() {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        }
    }

    /// Whether an active partition separates `a` and `b`; healed entries
    /// are reaped on the way through.
    fn partition_active(&mut self, a: &Arc<str>, b: &Arc<str>) -> bool {
        if self.partitions.is_empty() {
            return false;
        }
        let key = World::pair_key(a, b);
        match self.partitions.get(&key) {
            Some(None) => true,
            Some(Some(heal_at)) => {
                if self.now < *heal_at {
                    true
                } else {
                    self.partitions.remove(&key);
                    self.trace(TraceEvent::PartitionHealed { a: key.0, b: key.1 });
                    false
                }
            }
            None => false,
        }
    }

    /// Rolls a permille probability on the chaos stream. Zero knobs make
    /// no draw, keeping inert profiles stream-silent.
    fn chaos_hits(&mut self, permille: u16) -> bool {
        permille > 0 && self.chaos_rng.gen_range(0u64..1000) < u64::from(permille)
    }

    /// Drops every partition whose heal time has passed (tracing each
    /// heal, like the per-traversal reap does), keeping the table
    /// bounded by genuinely active partitions — and restoring the
    /// pristine fast path (which requires an *empty* table) once
    /// everything has healed. Called when a new spontaneous partition is
    /// inserted, when the profile changes, and from the inert-profile
    /// delivery path while the table is non-empty; the per-traversal
    /// path reaps only the pair it touches.
    fn sweep_partitions(&mut self) {
        let now = self.now;
        let healed: Vec<(Arc<str>, Arc<str>)> = self
            .partitions
            .iter()
            .filter(|(_, heal)| heal.is_some_and(|at| now >= at))
            .map(|(key, _)| key.clone())
            .collect();
        for key in healed {
            self.partitions.remove(&key);
            self.trace(TraceEvent::PartitionHealed { a: key.0, b: key.1 });
        }
    }

    /// Records what happened on one link traversal towards `to`,
    /// received by the physical host `dest_host` (a group member for
    /// multicast fan-out, impaired on its own link).
    fn trace_link(&mut self, fate: LinkFate, from: &SimAddr, to: &SimAddr, dest_host: &Arc<str>) {
        let member = (to.host.as_ref() != dest_host.as_ref()).then(|| dest_host.clone());
        let to = LinkEnd { to: to.clone(), member };
        self.trace(TraceEvent::Link { fate, from: from.clone(), to });
    }

    /// Decides the fate of one link traversal of a datagram between
    /// `from.host` and the *physical* receiving host `dest_host` — for a
    /// multicast fan-out that is the group member, not the group
    /// address, so partitions cut each member's link individually (see
    /// [`Impairments`] for the decision order). `deferrable` is false
    /// for egress traversals, where extra delay has no meaning.
    fn impair(
        &mut self,
        from: &SimAddr,
        to: &SimAddr,
        dest_host: &Arc<str>,
        deferrable: bool,
    ) -> Fate {
        if !self.pass.is_inert() && !self.pass.open_at(self.now, &from.host, dest_host) {
            self.trace_link(LinkFate::PassClosed, from, to, dest_host);
            return Fate::Dropped;
        }
        if self.impairments.is_inert() {
            if self.partitions.is_empty() {
                return Fate::Pristine;
            }
            // Inert profile but partitions linger (explicit ones, or
            // spontaneous ones that had not yet healed when the profile
            // was reset): reap the healed so the zero-cost path comes
            // back as soon as the table genuinely empties.
            self.sweep_partitions();
            if self.partitions.is_empty() {
                return Fate::Pristine;
            }
        }
        if self.partition_active(&from.host, dest_host) {
            self.trace_link(LinkFate::PartitionDrop, from, to, dest_host);
            return Fate::Dropped;
        }
        if self.chaos_hits(self.impairments.partition_permille) {
            // Each insertion pays for reaping the already-healed entries,
            // so the table never outgrows the set of partitions spawned
            // within one window.
            self.sweep_partitions();
            let heal_at = self.now + self.impairments.partition_window;
            let key = World::pair_key(&from.host, dest_host);
            let (a, b) = (key.0.clone(), key.1.clone());
            self.trace(TraceEvent::Partition { a, b, until: Some(heal_at) });
            self.partitions.insert(key, Some(heal_at));
            self.trace_link(LinkFate::PartitionDrop, from, to, dest_host);
            return Fate::Dropped;
        }
        if self.chaos_hits(self.impairments.drop_permille) {
            self.trace_link(LinkFate::Drop, from, to, dest_host);
            return Fate::Dropped;
        }
        let copies = if self.chaos_hits(self.impairments.duplicate_permille) {
            self.trace_link(LinkFate::Dup, from, to, dest_host);
            2
        } else {
            1
        };
        let mut plan = Vec::with_capacity(copies);
        for _ in 0..copies {
            let mut extra = SimDuration::ZERO;
            if deferrable {
                if self.impairments.jitter > SimDuration::ZERO {
                    extra = extra
                        + SimDuration::from_micros(
                            self.chaos_rng.gen_range(0..=self.impairments.jitter.as_micros()),
                        );
                }
                if self.chaos_hits(self.impairments.reorder_permille)
                    && self.impairments.reorder_window > SimDuration::ZERO
                {
                    extra = extra
                        + SimDuration::from_micros(
                            self.chaos_rng
                                .gen_range(1..=self.impairments.reorder_window.as_micros()),
                        );
                }
                if extra > SimDuration::ZERO {
                    self.trace_link(LinkFate::Delay(extra), from, to, dest_host);
                }
            }
            let corrupt = self.chaos_hits(self.impairments.corrupt_permille);
            plan.push((extra, corrupt));
        }
        Fate::Copies(plan)
    }

    /// Applies a corrupt verdict: XOR-flips one chaos-chosen payload
    /// byte (no-op — traced — on empty payloads).
    fn corrupt_payload(&mut self, from: &SimAddr, to: &SimAddr, payload: &Bytes) -> Bytes {
        let (from, to) = (from.clone(), to.clone());
        if payload.is_empty() {
            self.trace(TraceEvent::Corrupt { from, to, flip: None });
            return payload.clone();
        }
        let index = self.chaos_rng.gen_range(0..payload.len() as u64) as usize;
        let flip = self.chaos_rng.gen_range(1u64..=255) as u8;
        self.trace(TraceEvent::Corrupt { from, to, flip: Some((index, flip)) });
        let mut bytes = payload.to_vec();
        bytes[index] ^= flip;
        Bytes::from(bytes)
    }

    /// Materialises one chaos copy of `datagram`, corrupting the payload
    /// when the copy's plan says so.
    fn chaos_copy(&mut self, datagram: &Datagram, corrupt: bool) -> Datagram {
        let payload = if corrupt {
            self.corrupt_payload(&datagram.from, &datagram.to, &datagram.payload)
        } else {
            datagram.payload.clone()
        };
        Datagram { from: datagram.from.clone(), to: datagram.to.clone(), payload }
    }

    /// Schedules one impaired in-simulation delivery onto `to_host` (the
    /// physical receiver — the group member for multicast fan-out): the
    /// base modelled latency is sampled per copy (as an unimpaired send
    /// would), plus the copy's chaos deferral. The copy then rides the
    /// link layer: without a bandwidth model it is scheduled directly
    /// after its latency, otherwise it transmits through the fair-shared
    /// link first.
    fn deliver_datagram(&mut self, to_host: Arc<str>, datagram: Datagram) {
        match self.impair(&datagram.from, &datagram.to, &to_host, true) {
            Fate::Pristine => {
                let latency = self.latency();
                self.transmit(to_host, datagram, latency, false);
            }
            Fate::Dropped => {}
            Fate::Copies(plan) => {
                for (extra, corrupt) in plan {
                    let copy = self.chaos_copy(&datagram, corrupt);
                    let latency = self.latency();
                    self.transmit(to_host.clone(), copy, latency + extra, false);
                }
            }
        }
    }

    /// Queues one impaired egress traversal (loss/partition/duplication/
    /// corruption only — deferral has no meaning once bytes leave the
    /// virtual network). Under the bandwidth model the bytes still pay
    /// their transmission time through the shared link before appearing
    /// in the egress queue.
    fn queue_egress(&mut self, datagram: Datagram) {
        let dest_host = datagram.to.host.clone();
        match self.impair(&datagram.from, &datagram.to, &dest_host, false) {
            Fate::Pristine => self.transmit(dest_host, datagram, SimDuration::ZERO, true),
            Fate::Dropped => {}
            Fate::Copies(plan) => {
                for (_, corrupt) in plan {
                    let copy = self.chaos_copy(&datagram, corrupt);
                    self.transmit(dest_host.clone(), copy, SimDuration::ZERO, true);
                }
            }
        }
    }

    /// Hands one datagram copy to the link layer. With the bandwidth
    /// model off (`link_bandwidth == 0`, the default) this is exactly
    /// the pre-model behaviour — schedule after `tail`, or push egress
    /// immediately — at the cost of one branch. With a capacity set, the
    /// copy joins the fair-share fluid on its host-pair link, every
    /// in-flight transfer is re-settled, and `tail` is appended once the
    /// last byte leaves the link.
    fn transmit(&mut self, to_host: Arc<str>, datagram: Datagram, tail: SimDuration, egress: bool) {
        if self.link_bandwidth == 0 {
            if egress {
                self.egress.push(datagram);
            } else {
                let at = self.now + tail;
                self.schedule(at, to_host, EventKind::Datagram(datagram));
            }
            return;
        }
        let key = World::pair_key(&datagram.from.host, &to_host);
        let bandwidth = self.link_bandwidth;
        let now = self.now;
        let fate = LinkFate::BwStart(datagram.payload.len());
        self.trace_link(fate, &datagram.from, &datagram.to, &to_host);
        // Empty payloads still cost one micro-byte so every transfer
        // passes through the tick machinery uniformly.
        let remaining = (datagram.payload.len() as u64).saturating_mul(1_000_000).max(1);
        let state = self.links.entry(key.clone()).or_insert_with(|| LinkState {
            updated: now,
            gen: 0,
            transfers: Vec::new(),
        });
        World::settle_link(state, now, bandwidth);
        state.transfers.push(Transfer { remaining, to_host, datagram, tail, egress });
        state.gen += 1;
        let gen = state.gen;
        let delta = World::next_tick_delta(state, bandwidth);
        self.schedule(now + delta, key.0.clone(), EventKind::LinkTick { link: key, gen });
    }

    /// Settles the fluid model up to `now`: every in-flight transfer
    /// drains `capacity × Δt / n` micro-bytes of its fair share.
    fn settle_link(state: &mut LinkState, now: SimTime, bandwidth: u64) {
        let dt = now.since(state.updated).as_micros();
        state.updated = now;
        if dt == 0 || state.transfers.is_empty() {
            return;
        }
        let share = (u128::from(bandwidth) * u128::from(dt) / state.transfers.len() as u128) as u64;
        for transfer in &mut state.transfers {
            transfer.remaining = transfer.remaining.saturating_sub(share);
        }
    }

    /// Microseconds until the smallest in-flight transfer finishes at
    /// the current share — `ceil(min_remaining × n / capacity)`, so the
    /// settled progress at the tick is at least `min_remaining` and
    /// every tick completes at least one transfer (termination).
    fn next_tick_delta(state: &LinkState, bandwidth: u64) -> SimDuration {
        let min_remaining = state.transfers.iter().map(|t| t.remaining).min().unwrap_or(0);
        let n = state.transfers.len().max(1) as u128;
        let delta = (u128::from(min_remaining) * n).div_ceil(u128::from(bandwidth)).max(1);
        SimDuration::from_micros(delta as u64)
    }

    /// Whether a scheduled tick is still current for its link.
    fn link_tick_live(&self, link: &(Arc<str>, Arc<str>), gen: u64) -> bool {
        self.links.get(link).is_some_and(|state| state.gen == gen)
    }

    /// A live tick fired: settle the link, hand every finished transfer
    /// onward (in-sim deliveries pay their latency tail; egress copies
    /// surface in the egress queue), and reschedule for the remainder.
    fn on_link_tick(&mut self, key: (Arc<str>, Arc<str>)) {
        let bandwidth = self.link_bandwidth;
        let now = self.now;
        let (done, reschedule) = {
            let Some(state) = self.links.get_mut(&key) else { return };
            World::settle_link(state, now, bandwidth);
            let (done, rest): (Vec<Transfer>, Vec<Transfer>) =
                state.transfers.drain(..).partition(|t| t.remaining == 0);
            state.transfers = rest;
            if state.transfers.is_empty() {
                (done, None)
            } else {
                state.gen += 1;
                (done, Some((state.gen, World::next_tick_delta(state, bandwidth))))
            }
        };
        match reschedule {
            None => {
                self.links.remove(&key);
            }
            Some((gen, delta)) => {
                self.schedule(now + delta, key.0.clone(), EventKind::LinkTick { link: key, gen });
            }
        }
        for transfer in done {
            let Transfer { datagram, to_host, .. } = &transfer;
            self.trace_link(LinkFate::BwDone, &datagram.from, &datagram.to, to_host);
            if transfer.egress {
                self.egress.push(transfer.datagram);
            } else {
                let at = now + transfer.tail;
                self.schedule(at, transfer.to_host, EventKind::Datagram(transfer.datagram));
            }
        }
    }

    /// Bytes still in flight on the `a`↔`b` link (0 without the
    /// bandwidth model) — the saturation signal store-and-forward
    /// sessions consult before committing an egress leg.
    fn link_backlog_bytes(&self, a: &Arc<str>, b: &Arc<str>) -> u64 {
        if self.link_bandwidth == 0 {
            return 0;
        }
        let key = World::pair_key(a, b);
        self.links
            .get(&key)
            .map(|state| state.transfers.iter().map(|t| t.remaining.div_ceil(1_000_000)).sum())
            .unwrap_or(0)
    }

    /// Whether the `a`↔`b` link is currently usable: no active
    /// partition and (when a pass schedule is installed) an open
    /// connectivity window.
    fn link_usable(&mut self, a: &Arc<str>, b: &Arc<str>) -> bool {
        if self.partition_active(a, b) {
            return false;
        }
        self.pass.is_inert() || self.pass.open_at(self.now, a, b)
    }
}

/// The capabilities an actor has while handling an event.
#[derive(Debug)]
pub struct Context<'w> {
    world: &'w mut World,
    host: &'w Arc<str>,
}

impl Context<'_> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The host this actor runs on.
    pub fn host(&self) -> &str {
        self.host
    }

    /// Binds a UDP port on this host; datagrams addressed to it will be
    /// delivered to the actor.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PortInUse`] when already bound.
    pub fn bind_udp(&mut self, port: u16) -> Result<()> {
        let key = (self.host.clone(), port);
        if !self.world.udp_bindings.insert(key) {
            return Err(NetError::PortInUse { host: self.host.as_ref().to_owned(), port });
        }
        Ok(())
    }

    /// Joins a multicast group endpoint (group address + port); all
    /// datagrams sent to the group are delivered to members.
    pub fn join_group(&mut self, group: SimAddr) {
        self.world.groups.entry(group).or_default().insert(self.host.clone());
    }

    /// Leaves a multicast group endpoint.
    pub fn leave_group(&mut self, group: &SimAddr) {
        if let Some(members) = self.world.groups.get_mut(group) {
            members.remove(self.host.as_ref());
        }
    }

    /// Sends a UDP datagram from `from_port` on this host. Multicast
    /// destinations fan out to every group member except the sender;
    /// unicast destinations are delivered when the target host has bound
    /// the port (silently dropped — and traced — otherwise, like real
    /// UDP).
    pub fn udp_send(&mut self, from_port: u16, to: SimAddr, payload: impl Into<Bytes>) {
        let payload: Bytes = payload.into();
        let from = SimAddr::new(self.host.clone(), from_port);
        if to.is_multicast() {
            let members: Vec<Arc<str>> = self
                .world
                .groups
                .get(&to)
                .map(|m| m.iter().filter(|h| h.as_ref() != self.host.as_ref()).cloned().collect())
                .unwrap_or_default();
            self.world.trace(TraceEvent::UdpMulticast {
                from: from.clone(),
                group: to.clone(),
                bytes: payload.len(),
                members: members.len(),
            });
            for member in members {
                self.world.deliver_datagram(
                    member,
                    Datagram { from: from.clone(), to: to.clone(), payload: payload.clone() },
                );
            }
            let external: Vec<SimAddr> = self
                .world
                .external_group_members
                .get(&to)
                .map(|m| m.iter().cloned().collect())
                .unwrap_or_default();
            for member in external {
                self.world.trace(TraceEvent::UdpEgressMember {
                    from: from.clone(),
                    member: member.clone(),
                    group: to.clone(),
                });
                self.world.queue_egress(Datagram {
                    from: from.clone(),
                    to: member,
                    payload: payload.clone(),
                });
            }
        } else if self.world.external_hosts.contains(&to.host) {
            let bytes = payload.len();
            self.world.trace(TraceEvent::UdpEgress { from: from.clone(), to: to.clone(), bytes });
            self.world.queue_egress(Datagram { from, to, payload });
        } else {
            let bound = self.world.udp_bindings.contains(&(to.host.clone(), to.port));
            if bound {
                let bytes = payload.len();
                self.world.trace(TraceEvent::Udp { from: from.clone(), to: to.clone(), bytes });
                let to_host = to.host.clone();
                self.world.deliver_datagram(to_host, Datagram { from, to, payload });
            } else {
                self.world.trace(TraceEvent::UdpUnbound { from, to });
            }
        }
    }

    /// Starts listening for TCP connections on `port`.
    pub fn listen_tcp(&mut self, port: u16) {
        self.world.tcp_listeners.insert((self.host.clone(), port));
    }

    /// Opens a TCP connection to `to`. The listener receives
    /// [`TcpEvent::Accepted`] after one latency, the initiator
    /// [`TcpEvent::Connected`] after two (SYN → SYN/ACK).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ConnectionRefused`] when nothing listens at
    /// the destination.
    pub fn tcp_connect(&mut self, to: SimAddr) -> Result<ConnId> {
        if !self.world.tcp_listeners.contains(&(to.host.clone(), to.port)) {
            return Err(NetError::ConnectionRefused {
                host: to.host.as_ref().to_owned(),
                port: to.port,
            });
        }
        let local = self.host.clone();
        if self.world.partition_active(&local, &to.host) {
            self.world.trace(TraceEvent::TcpRefused { from: local, port: None, to: to.clone() });
            return Err(NetError::ConnectionRefused {
                host: to.host.as_ref().to_owned(),
                port: to.port,
            });
        }
        let conn = self.world.next_conn;
        self.world.next_conn += 1;
        let local_port = self.world.next_ephemeral;
        self.world.next_ephemeral = self.world.next_ephemeral.wrapping_add(1).max(49152);
        let initiator = SimAddr::new(self.host.clone(), local_port);
        self.world
            .connections
            .insert(conn, Connection { initiator: initiator.clone(), target: to.clone() });
        self.world.trace(TraceEvent::TcpConnect {
            conn: ConnId(conn),
            from: initiator.clone(),
            to: to.clone(),
            external: false,
        });
        let one_way = self.world.latency();
        let accepted_at = self.world.now + one_way;
        self.world.schedule(
            accepted_at,
            to.host.clone(),
            EventKind::TcpAccepted { conn, peer: initiator, local_port: to.port },
        );
        let back = self.world.latency();
        let connected_at = accepted_at + back;
        self.world.schedule(
            connected_at,
            self.host.clone(),
            EventKind::TcpConnected { conn, peer: to },
        );
        Ok(ConnId(conn))
    }

    /// Sends stream data on an open connection; delivered to the peer
    /// after one latency.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotConnected`] for unknown/closed connections.
    pub fn tcp_send(&mut self, conn: ConnId, payload: impl Into<Bytes>) -> Result<()> {
        let payload: Bytes = payload.into();
        let peer_host = self.peer_of(conn)?;
        self.world.trace(TraceEvent::TcpData {
            conn,
            from: self.host.clone(),
            to: peer_host.clone(),
            bytes: payload.len(),
        });
        if self.world.external_hosts.contains(&peer_host) {
            // The far end is a real endpoint behind a gateway loop: the
            // bytes leave the simulation instead of being scheduled (the
            // real network pays its own latency).
            self.world.tcp_egress.push(ExternalTcpEvent::Data { conn, payload });
            return Ok(());
        }
        let latency = self.world.latency();
        let at = self.world.now + latency;
        self.world.schedule(at, peer_host, EventKind::TcpData { conn: conn.0, payload });
        Ok(())
    }

    /// Closes a connection; the peer receives [`TcpEvent::Closed`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotConnected`] for unknown/closed connections.
    pub fn tcp_close(&mut self, conn: ConnId) -> Result<()> {
        let peer_host = self.peer_of(conn)?;
        self.world.connections.remove(&conn.0);
        self.world.trace(TraceEvent::TcpClose { conn, by: self.host.clone() });
        if self.world.external_hosts.contains(&peer_host) {
            self.world.tcp_egress.push(ExternalTcpEvent::Closed { conn });
            return Ok(());
        }
        let latency = self.world.latency();
        let at = self.world.now + latency;
        self.world.schedule(at, peer_host, EventKind::TcpClosed { conn: conn.0 });
        Ok(())
    }

    /// The far end's host of an open connection.
    fn peer_of(&self, conn: ConnId) -> Result<Arc<str>> {
        let connection =
            self.world.connections.get(&conn.0).ok_or(NetError::NotConnected(conn.0))?;
        Ok(if connection.initiator.host.as_ref() == self.host.as_ref() {
            connection.target.host.clone()
        } else {
            connection.initiator.host.clone()
        })
    }

    /// Schedules a timer for this actor after `delay`; `tag` is returned
    /// to [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.world.next_timer;
        self.world.next_timer += 1;
        let at = self.world.now + delay;
        self.world.schedule(at, self.host.clone(), EventKind::Timer { id, tag });
        TimerId(id)
    }

    /// Cancels a pending timer (firing becomes a no-op).
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.world.cancelled_timers.insert(timer.0);
    }

    /// Uniform random integer in `[lo, hi]` from the simulation's seeded
    /// stream (for protocol-level jitter like SSDP's MX backoff).
    pub fn rand_range(&mut self, lo: u64, hi: u64) -> u64 {
        self.world.rng.gen_range(lo..=hi.max(lo))
    }

    /// Whether the link(s) from this host towards `to` are currently
    /// usable: no active partition and — when a [`PassSchedule`] is
    /// installed — an open connectivity window. Multicast destinations
    /// check every in-simulation group member; external endpoints are
    /// gated exactly like in-simulation hosts (the egress queue passes
    /// through the same impairment pipeline, so what this predicate
    /// promises is what the pipeline will do). This is the signal a
    /// store-and-forward session consults before committing an egress
    /// leg.
    pub fn link_open(&mut self, to: &SimAddr) -> bool {
        if to.is_multicast() {
            let members: Vec<Arc<str>> = self
                .world
                .groups
                .get(to)
                .map(|m| m.iter().filter(|h| h.as_ref() != self.host.as_ref()).cloned().collect())
                .unwrap_or_default();
            members.iter().all(|member| {
                let host = self.host.clone();
                self.world.link_usable(&host, member)
            })
        } else {
            let host = self.host.clone();
            self.world.link_usable(&host, &to.host)
        }
    }

    /// Bytes still in transmission on the shared link(s) between this
    /// host and `to` (the worst member for multicast; always 0 without
    /// the bandwidth model) — the saturation signal complementing
    /// [`Context::link_open`].
    pub fn link_backlog(&self, to: &SimAddr) -> u64 {
        if to.is_multicast() {
            self.world
                .groups
                .get(to)
                .map(|members| {
                    members
                        .iter()
                        .filter(|h| h.as_ref() != self.host.as_ref())
                        .map(|member| self.world.link_backlog_bytes(self.host, member))
                        .max()
                        .unwrap_or(0)
                })
                .unwrap_or(0)
        } else {
            self.world.link_backlog_bytes(self.host, &to.host)
        }
    }

    /// Records a free-text note in the simulation trace (a `&'static
    /// str` records without allocating).
    pub fn trace(&mut self, note: impl Into<Cow<'static, str>>) {
        self.world.trace(TraceEvent::Note(note.into()));
    }

    /// Records a typed event in the simulation trace.
    pub fn record(&mut self, event: TraceEvent) {
        self.world.trace(event);
    }
}

/// The simulation: hosts, clock and event queue.
///
/// ```
/// use starlink_net::{SimNet, Actor, Context, Datagram, SimAddr};
///
/// struct Echo;
/// impl Actor for Echo {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         ctx.bind_udp(9).unwrap();
///     }
///     fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
///         ctx.udp_send(9, datagram.from, datagram.payload);
///     }
/// }
///
/// struct Probe;
/// impl Actor for Probe {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         ctx.bind_udp(1000).unwrap();
///         ctx.udp_send(1000, SimAddr::new("10.0.0.2", 9), &b"ping"[..]);
///     }
/// }
///
/// // Start order matters: the echo server must bind its port before the
/// // probe's datagram is sent (actors start in registration order).
/// let mut sim = SimNet::new(42);
/// sim.add_actor("10.0.0.2", Echo);
/// sim.add_actor("10.0.0.1", Probe);
/// sim.run_until_idle();
/// assert!(sim.now().as_micros() > 0);
/// ```
#[derive(Debug)]
pub struct SimNet {
    world: World,
    actors: BTreeMap<Arc<str>, Option<Box<dyn Actor>>>,
}

impl std::fmt::Debug for dyn Actor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Actor")
    }
}

impl SimNet {
    /// Creates a simulation seeded with `seed` (identical seeds replay
    /// identical runs).
    pub fn new(seed: u64) -> Self {
        SimNet {
            world: World {
                now: SimTime::ZERO,
                seq: 0,
                events: BinaryHeap::new(),
                rng: StdRng::seed_from_u64(seed),
                latency: LatencyModel::default(),
                udp_bindings: BTreeSet::new(),
                groups: BTreeMap::new(),
                tcp_listeners: BTreeSet::new(),
                connections: BTreeMap::new(),
                next_conn: 1,
                next_ephemeral: 49152,
                next_timer: 1,
                cancelled_timers: BTreeSet::new(),
                trace: TraceRing::default(),
                hosts: BTreeSet::new(),
                external_hosts: BTreeSet::new(),
                external_group_members: BTreeMap::new(),
                egress: Vec::new(),
                tcp_egress: Vec::new(),
                impairments: Impairments::none(),
                // A distinct stream from the latency RNG: the same seed
                // drives both, but chaos draws never shift latency
                // samples (and vice versa).
                chaos_rng: StdRng::seed_from_u64(seed ^ 0xC4A0_5EED_0000_0001),
                partitions: BTreeMap::new(),
                link_bandwidth: 0,
                links: BTreeMap::new(),
                pass: PassSchedule::always_open(),
            },
            actors: BTreeMap::new(),
        }
    }

    /// Replaces the impairment profile (default: [`Impairments::none`]).
    /// Takes effect for every subsequent link traversal. Healed
    /// partitions are swept, so resetting to the inert profile restores
    /// the zero-cost delivery path once no partition remains active.
    pub fn set_impairments(&mut self, impairments: Impairments) {
        self.world.sweep_partitions();
        self.world.impairments = impairments;
    }

    /// The active impairment profile.
    pub fn impairments(&self) -> &Impairments {
        &self.world.impairments
    }

    /// Sets the shared per-link capacity in bytes per second. `0` — the
    /// default — disables the bandwidth model: delivery times come from
    /// the latency model alone and a run replays bit-identically to one
    /// that never heard of bandwidth. Any other value routes every
    /// datagram copy through a fair-share fluid on its host-pair link:
    /// all concurrent transfers split the capacity equally, re-settled
    /// on every transfer start and finish, and the sampled latency is
    /// appended after transmission (so the model *composes with* rather
    /// than replaces the latency draws and [`Impairments`]).
    pub fn set_link_bandwidth(&mut self, bytes_per_sec: u64) {
        self.world.link_bandwidth = bytes_per_sec;
    }

    /// The shared per-link capacity in bytes per second (`0` =
    /// unlimited).
    pub fn link_bandwidth(&self) -> u64 {
        self.world.link_bandwidth
    }

    /// Installs a connectivity [`PassSchedule`] (default:
    /// [`PassSchedule::always_open`], which gates nothing and keeps the
    /// replay bit-identical).
    pub fn set_pass_schedule(&mut self, pass: PassSchedule) {
        self.world.pass = pass;
    }

    /// The active pass schedule.
    pub fn pass_schedule(&self) -> &PassSchedule {
        &self.world.pass
    }

    /// Partitions hosts `a` and `b` from each other until
    /// [`SimNet::heal_partition`]: datagrams between them are dropped
    /// (and traced) and new TCP connections are refused. Established TCP
    /// connections are untouched (TCP models a reliable transport).
    pub fn partition(&mut self, a: impl Into<Arc<str>>, b: impl Into<Arc<str>>) {
        let key = World::pair_key(&a.into(), &b.into());
        let (a, b) = (key.0.clone(), key.1.clone());
        self.world.trace(TraceEvent::Partition { a, b, until: None });
        self.world.partitions.insert(key, None);
    }

    /// Partitions hosts `a` and `b` for `window`, healing automatically.
    pub fn partition_for(
        &mut self,
        a: impl Into<Arc<str>>,
        b: impl Into<Arc<str>>,
        window: SimDuration,
    ) {
        let heal_at = self.world.now + window;
        let key = World::pair_key(&a.into(), &b.into());
        let (a, b) = (key.0.clone(), key.1.clone());
        self.world.trace(TraceEvent::Partition { a, b, until: Some(heal_at) });
        self.world.partitions.insert(key, Some(heal_at));
    }

    /// Heals the partition between `a` and `b`, if one is active.
    pub fn heal_partition(&mut self, a: impl Into<Arc<str>>, b: impl Into<Arc<str>>) {
        let key = World::pair_key(&a.into(), &b.into());
        if self.world.partitions.remove(&key).is_some() {
            self.world.trace(TraceEvent::PartitionHealed { a: key.0, b: key.1 });
        }
    }

    /// The retained trace as one newline-terminated text block
    /// (`<micros> <event>` per line) — the byte-comparable form the
    /// chaos determinism tests and failure dumps use.
    pub fn trace_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for entry in &self.world.trace {
            let _ = writeln!(out, "{} {}", entry.at.as_micros(), entry.event);
        }
        out
    }

    /// Declares `host` as living outside the simulation: unicast
    /// datagrams addressed to it are queued for [`SimNet::drain_egress`]
    /// instead of being dropped. A gateway loop (e.g. the realnet
    /// [`crate::UdpBridge`]) forwards them over real sockets.
    pub fn register_external_host(&mut self, host: impl Into<Arc<str>>) {
        self.world.external_hosts.insert(host.into());
    }

    /// Registers an endpoint outside the simulation as a member of a
    /// multicast `group`; group sends fan out to it through the egress
    /// queue.
    pub fn join_group_external(&mut self, group: SimAddr, member: SimAddr) {
        self.world.external_group_members.entry(group).or_default().insert(member);
    }

    /// Injects a datagram arriving from outside the simulation; it is
    /// delivered to `datagram.to.host` at the current virtual time (the
    /// real network already paid its latency). The sender's host is
    /// implicitly registered as external so replies can leave again.
    pub fn inject_datagram(&mut self, datagram: Datagram) {
        self.world.external_hosts.insert(datagram.from.host.clone());
        let host = datagram.to.host.clone();
        match self.world.impair(&datagram.from, &datagram.to, &host, true) {
            Fate::Pristine => {
                self.world.transmit(host, datagram, SimDuration::ZERO, false);
            }
            Fate::Dropped => {}
            Fate::Copies(plan) => {
                for (extra, corrupt) in plan {
                    let copy = self.world.chaos_copy(&datagram, corrupt);
                    self.world.transmit(host.clone(), copy, extra, false);
                }
            }
        }
    }

    /// Drains the datagrams queued for external endpoints since the last
    /// call.
    pub fn drain_egress(&mut self) -> Vec<Datagram> {
        std::mem::take(&mut self.world.egress)
    }

    /// Drains queued egress datagrams into `out` (cleared first), so a
    /// gateway loop can reuse one buffer across pump iterations instead
    /// of allocating a fresh `Vec` per call.
    pub fn drain_egress_into(&mut self, out: &mut Vec<Datagram>) {
        out.clear();
        out.append(&mut self.world.egress);
    }

    /// Opens a TCP connection *into* the simulation from an external
    /// endpoint `from` (implicitly registered as an external host): the
    /// listener at `to` receives [`TcpEvent::Accepted`] at the current
    /// virtual time, and the returned [`ConnId`] can immediately carry
    /// [`SimNet::inject_tcp_data`] — injected events keep their order.
    /// Data the simulated side sends on the connection leaves through
    /// [`SimNet::drain_tcp_egress`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ConnectionRefused`] when nothing listens at
    /// `to`.
    pub fn external_tcp_connect(&mut self, from: SimAddr, to: SimAddr) -> Result<ConnId> {
        if !self.world.tcp_listeners.contains(&(to.host.clone(), to.port)) {
            return Err(NetError::ConnectionRefused {
                host: to.host.as_ref().to_owned(),
                port: to.port,
            });
        }
        if self.world.partition_active(&from.host, &to.host) {
            self.world.trace(TraceEvent::TcpRefused {
                from: from.host.clone(),
                port: Some(from.port),
                to: to.clone(),
            });
            return Err(NetError::ConnectionRefused {
                host: to.host.as_ref().to_owned(),
                port: to.port,
            });
        }
        self.world.external_hosts.insert(from.host.clone());
        let conn = self.world.next_conn;
        self.world.next_conn += 1;
        self.world
            .connections
            .insert(conn, Connection { initiator: from.clone(), target: to.clone() });
        self.world.trace(TraceEvent::TcpConnect {
            conn: ConnId(conn),
            from: from.clone(),
            to: to.clone(),
            external: true,
        });
        let now = self.world.now;
        self.world.schedule(
            now,
            to.host.clone(),
            EventKind::TcpAccepted { conn, peer: from, local_port: to.port },
        );
        Ok(ConnId(conn))
    }

    /// Injects stream data arriving from the external end of `conn`,
    /// delivered to the simulated side at the current virtual time.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotConnected`] for unknown or closed
    /// connections.
    pub fn inject_tcp_data(&mut self, conn: ConnId, payload: impl Into<Bytes>) -> Result<()> {
        let payload: Bytes = payload.into();
        let sim_host = self.external_conn_sim_side(conn)?;
        let now = self.world.now;
        self.world.schedule(now, sim_host, EventKind::TcpData { conn: conn.0, payload });
        Ok(())
    }

    /// Injects a close from the external end of `conn`; the simulated
    /// side receives [`TcpEvent::Closed`] at the current virtual time.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotConnected`] for unknown or closed
    /// connections.
    pub fn inject_tcp_close(&mut self, conn: ConnId) -> Result<()> {
        let sim_host = self.external_conn_sim_side(conn)?;
        self.world.connections.remove(&conn.0);
        let now = self.world.now;
        self.world.schedule(now, sim_host, EventKind::TcpClosed { conn: conn.0 });
        Ok(())
    }

    /// The simulated end of a connection with one external endpoint.
    fn external_conn_sim_side(&self, conn: ConnId) -> Result<Arc<str>> {
        let connection =
            self.world.connections.get(&conn.0).ok_or(NetError::NotConnected(conn.0))?;
        Ok(if self.world.external_hosts.contains(&connection.initiator.host) {
            connection.target.host.clone()
        } else {
            connection.initiator.host.clone()
        })
    }

    /// Drains the TCP events queued for external endpoints since the
    /// last call.
    pub fn drain_tcp_egress(&mut self) -> Vec<ExternalTcpEvent> {
        std::mem::take(&mut self.world.tcp_egress)
    }

    /// Delivers an out-of-band control payload to the actor at `host`
    /// **immediately**, at the current virtual time — control commands
    /// do not travel the simulated wire, so they are never impaired,
    /// delayed or gated by pass schedules. No-op (traced) when the host
    /// runs no actor.
    pub fn deliver_control(&mut self, host: &str, payload: Box<dyn std::any::Any + Send>) {
        let Some(slot) = self.actors.get_mut(host) else {
            self.world.trace(TraceEvent::ControlUnknownHost { host: host.to_owned() });
            return;
        };
        let Some(mut actor) = slot.take() else {
            return;
        };
        let host: Arc<str> = Arc::from(host);
        {
            let mut ctx = Context { world: &mut self.world, host: &host };
            actor.on_control(&mut ctx, payload);
        }
        if let Some(slot) = self.actors.get_mut(&host) {
            *slot = Some(actor);
        }
    }

    /// Replaces the latency model (default: [`LatencyModel::local_machine`]).
    pub fn set_latency(&mut self, latency: LatencyModel) {
        self.world.latency = latency;
    }

    /// Adds a host running `actor`; its [`Actor::on_start`] runs as the
    /// first event at the current virtual time.
    pub fn add_actor(&mut self, host: impl Into<String>, actor: impl Actor + 'static) {
        let host: Arc<str> = Arc::from(host.into());
        self.world.hosts.insert(host.clone());
        self.actors.insert(host.clone(), Some(Box::new(actor)));
        let now = self.world.now;
        self.world.schedule(now, host, EventKind::Start);
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The trace ring: the most recent events (at most
    /// [`crate::TRACE_CAP`]) plus counts of everything recorded.
    pub fn trace(&self) -> &TraceRing {
        &self.world.trace
    }

    /// TCP connections currently open (closed ones are forgotten).
    pub fn open_connections(&self) -> usize {
        self.world.connections.len()
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.world.events.len()
    }

    fn dispatch(&mut self, event: Event) {
        // Take the actor out of its slot so the context can borrow the
        // world mutably; single-threaded, so the slot cannot be observed
        // empty by anyone else.
        let Some(slot) = self.actors.get_mut(&event.host) else {
            return;
        };
        let Some(mut actor) = slot.take() else {
            return;
        };
        {
            let mut ctx = Context { world: &mut self.world, host: &event.host };
            match event.kind {
                EventKind::Start => actor.on_start(&mut ctx),
                EventKind::Datagram(datagram) => actor.on_datagram(&mut ctx, datagram),
                EventKind::TcpAccepted { conn, peer, local_port } => actor
                    .on_tcp(&mut ctx, TcpEvent::Accepted { conn: ConnId(conn), peer, local_port }),
                EventKind::TcpConnected { conn, peer } => {
                    actor.on_tcp(&mut ctx, TcpEvent::Connected { conn: ConnId(conn), peer })
                }
                EventKind::TcpData { conn, payload } => {
                    actor.on_tcp(&mut ctx, TcpEvent::Data { conn: ConnId(conn), payload })
                }
                EventKind::TcpClosed { conn } => {
                    actor.on_tcp(&mut ctx, TcpEvent::Closed { conn: ConnId(conn) })
                }
                EventKind::Timer { tag, .. } => actor.on_timer(&mut ctx, tag),
                // Link ticks are consumed by the event loop before
                // dispatch ever sees them.
                EventKind::LinkTick { .. } => unreachable!("link ticks never reach dispatch"),
            }
        }
        if let Some(slot) = self.actors.get_mut(&event.host) {
            *slot = Some(actor);
        }
    }

    /// Drops the event without dispatching when it is a cancelled timer.
    /// Cancelled timers do not advance the virtual clock either — they
    /// were revoked before firing, so time must not fast-forward to them
    /// (a completed bridge session cancelling its idle-expiry timer must
    /// not stretch `run_until_idle` by the timeout).
    fn consume_if_cancelled(&mut self, event: &Event) -> bool {
        if let EventKind::Timer { id, .. } = &event.kind {
            if self.world.cancelled_timers.remove(id) {
                return true;
            }
        }
        false
    }

    /// Link ticks are simulator-internal: a live one advances the clock
    /// and settles its link; a stale one (the link's generation moved
    /// on) is skipped without advancing the clock, exactly like a
    /// cancelled timer. Returns whether the event was consumed here.
    fn consume_link_tick(&mut self, event: &Event) -> Option<bool> {
        let EventKind::LinkTick { link, gen } = &event.kind else {
            return None;
        };
        if !self.world.link_tick_live(link, *gen) {
            return Some(false);
        }
        let link = link.clone();
        self.world.now = event.at;
        self.world.on_link_tick(link);
        Some(true)
    }

    /// Processes the next event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        loop {
            let Some(Reverse(event)) = self.world.events.pop() else {
                return false;
            };
            if self.consume_if_cancelled(&event) {
                continue;
            }
            match self.consume_link_tick(&event) {
                Some(true) => return true,
                Some(false) => continue,
                None => {}
            }
            self.world.now = event.at;
            self.dispatch(event);
            return true;
        }
    }

    /// Runs until no events remain, returning the final virtual time.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.world.now
    }

    /// Runs until the queue is empty or the next event is after
    /// `deadline`; the clock never advances beyond processed events.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        loop {
            match self.world.events.peek() {
                Some(Reverse(event)) if event.at <= deadline => {
                    let Reverse(event) = self.world.events.pop().expect("peeked");
                    if self.consume_if_cancelled(&event) {
                        continue;
                    }
                    if self.consume_link_tick(&event).is_some() {
                        continue;
                    }
                    self.world.now = event.at;
                    self.dispatch(event);
                }
                _ => break,
            }
        }
        self.world.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Records every datagram payload it receives.
    struct Sink {
        port: u16,
        group: Option<SimAddr>,
        received: Arc<AtomicUsize>,
    }

    impl Actor for Sink {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.bind_udp(self.port).unwrap();
            if let Some(group) = self.group.clone() {
                ctx.join_group(group);
            }
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, _datagram: Datagram) {
            self.received.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Sends one unicast datagram at start.
    struct OneShot {
        to: SimAddr,
    }

    impl Actor for OneShot {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.bind_udp(5000).unwrap();
            ctx.udp_send(5000, self.to.clone(), &b"hello"[..]);
        }
    }

    #[test]
    fn unicast_delivery_advances_clock() {
        let received = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(1);
        sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
        sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("10.0.0.2", 80) });
        let end = sim.run_until_idle();
        assert_eq!(received.load(Ordering::SeqCst), 1);
        assert!(end.as_micros() >= 200, "latency applied");
    }

    #[test]
    fn datagram_to_unbound_port_is_dropped() {
        let received = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(1);
        sim.add_actor("10.0.0.2", Sink { port: 81, group: None, received: received.clone() });
        sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("10.0.0.2", 80) });
        sim.run_until_idle();
        assert_eq!(received.load(Ordering::SeqCst), 0);
        assert!(sim.trace().iter().any(|t| t.event.to_string().contains("dropped")));
    }

    #[test]
    fn multicast_fans_out_excluding_sender() {
        let group = SimAddr::new("239.255.255.250", 1900);
        let a = Arc::new(AtomicUsize::new(0));
        let b = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(2);
        sim.add_actor(
            "10.0.0.2",
            Sink { port: 1900, group: Some(group.clone()), received: a.clone() },
        );
        sim.add_actor(
            "10.0.0.3",
            Sink { port: 1900, group: Some(group.clone()), received: b.clone() },
        );

        struct Caster {
            group: SimAddr,
        }
        impl Actor for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(1900).unwrap();
                ctx.join_group(self.group.clone());
                ctx.udp_send(1900, self.group.clone(), &b"M-SEARCH"[..]);
            }
        }
        sim.add_actor("10.0.0.1", Caster { group });
        sim.run_until_idle();
        assert_eq!(a.load(Ordering::SeqCst), 1);
        assert_eq!(b.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        fn run(seed: u64) -> (SimTime, usize) {
            let received = Arc::new(AtomicUsize::new(0));
            let mut sim = SimNet::new(seed);
            sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
            sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("10.0.0.2", 80) });
            (sim.run_until_idle(), sim.trace().len())
        }
        assert_eq!(run(7), run(7));
        // Different seeds give different latencies (with high probability).
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn tcp_handshake_data_and_close() {
        struct Server {
            log: Arc<AtomicU64>,
        }
        impl Actor for Server {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.listen_tcp(80);
            }
            fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
                match event {
                    TcpEvent::Accepted { .. } => {
                        self.log.fetch_add(1, Ordering::SeqCst);
                    }
                    TcpEvent::Data { conn, payload } => {
                        assert_eq!(&payload[..], b"GET /");
                        self.log.fetch_add(10, Ordering::SeqCst);
                        ctx.tcp_send(conn, &b"200 OK"[..]).unwrap();
                    }
                    TcpEvent::Closed { .. } => {
                        self.log.fetch_add(100, Ordering::SeqCst);
                    }
                    TcpEvent::Connected { .. } => unreachable!(),
                }
            }
        }
        struct Client {
            log: Arc<AtomicU64>,
        }
        impl Actor for Client {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.tcp_connect(SimAddr::new("10.0.0.2", 80)).unwrap();
            }
            fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
                match event {
                    TcpEvent::Connected { conn, .. } => {
                        self.log.fetch_add(1000, Ordering::SeqCst);
                        ctx.tcp_send(conn, &b"GET /"[..]).unwrap();
                    }
                    TcpEvent::Data { conn, payload } => {
                        assert_eq!(&payload[..], b"200 OK");
                        self.log.fetch_add(10000, Ordering::SeqCst);
                        ctx.tcp_close(conn).unwrap();
                    }
                    _ => {}
                }
            }
        }
        let server_log = Arc::new(AtomicU64::new(0));
        let client_log = Arc::new(AtomicU64::new(0));
        let mut sim = SimNet::new(3);
        sim.add_actor("10.0.0.2", Server { log: server_log.clone() });
        sim.add_actor("10.0.0.1", Client { log: client_log.clone() });
        sim.run_until_idle();
        assert_eq!(server_log.load(Ordering::SeqCst), 111); // accept + data + close
        assert_eq!(client_log.load(Ordering::SeqCst), 11000); // connected + data
    }

    #[test]
    fn tcp_connect_refused_without_listener() {
        struct Lonely;
        impl Actor for Lonely {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let err = ctx.tcp_connect(SimAddr::new("10.0.0.9", 80)).unwrap_err();
                assert!(matches!(err, NetError::ConnectionRefused { .. }));
            }
        }
        let mut sim = SimNet::new(4);
        sim.add_actor("10.0.0.1", Lonely);
        sim.run_until_idle();
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        use std::sync::Mutex;
        struct Timed {
            fired: Arc<Mutex<Vec<u64>>>,
        }
        impl Actor for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let cancel_me = ctx.set_timer(SimDuration::from_millis(5), 2);
                ctx.set_timer(SimDuration::from_millis(20), 3);
                ctx.cancel_timer(cancel_me);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
                self.fired.lock().unwrap().push(tag);
                assert!(ctx.now() >= SimTime::from_millis(10));
            }
        }
        let fired = Arc::new(Mutex::new(Vec::new()));
        let mut sim = SimNet::new(5);
        sim.add_actor("10.0.0.1", Timed { fired: fired.clone() });
        sim.run_until_idle();
        assert_eq!(*fired.lock().unwrap(), vec![1, 3]); // tag 2 cancelled
    }

    #[test]
    fn run_until_respects_deadline() {
        struct Late;
        impl Actor for Late {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_secs(10), 0);
            }
        }
        let mut sim = SimNet::new(6);
        sim.add_actor("10.0.0.1", Late);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.pending_events(), 1);
        assert!(sim.now() <= SimTime::from_millis(100));
    }

    #[test]
    fn double_bind_rejected() {
        struct Binder;
        impl Actor for Binder {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(427).unwrap();
                assert!(matches!(ctx.bind_udp(427), Err(NetError::PortInUse { .. })));
            }
        }
        let mut sim = SimNet::new(7);
        sim.add_actor("10.0.0.1", Binder);
        sim.run_until_idle();
    }

    #[test]
    fn cancelled_timer_does_not_advance_clock() {
        struct Canceller;
        impl Actor for Canceller {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 1);
                let late = ctx.set_timer(SimDuration::from_secs(60), 2);
                ctx.cancel_timer(late);
            }
        }
        let mut sim = SimNet::new(11);
        sim.add_actor("10.0.0.1", Canceller);
        let end = sim.run_until_idle();
        assert_eq!(end, SimTime::from_millis(1), "cancelled timer stretched the run to {end:?}");
    }

    #[test]
    fn external_unicast_is_queued_for_egress() {
        let mut sim = SimNet::new(12);
        sim.register_external_host("127.0.0.1");
        sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("127.0.0.1", 9000) });
        sim.run_until_idle();
        let egress = sim.drain_egress();
        assert_eq!(egress.len(), 1);
        assert_eq!(egress[0].to, SimAddr::new("127.0.0.1", 9000));
        assert_eq!(&egress[0].payload[..], b"hello");
        assert!(sim.drain_egress().is_empty(), "drain consumes the queue");
    }

    #[test]
    fn external_group_member_receives_multicast_via_egress() {
        let group = SimAddr::new("239.0.0.9", 4000);
        let mut sim = SimNet::new(13);
        sim.join_group_external(group.clone(), SimAddr::new("127.0.0.1", 5555));
        struct Caster {
            group: SimAddr,
        }
        impl Actor for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(4000).unwrap();
                ctx.udp_send(4000, self.group.clone(), &b"hi"[..]);
            }
        }
        sim.add_actor("10.0.0.1", Caster { group });
        sim.run_until_idle();
        let egress = sim.drain_egress();
        assert_eq!(egress.len(), 1);
        assert_eq!(egress[0].to, SimAddr::new("127.0.0.1", 5555));
    }

    #[test]
    fn injected_datagram_is_delivered_and_reply_leaves_again() {
        struct Echo;
        impl Actor for Echo {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(9).unwrap();
            }
            fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
                ctx.udp_send(9, datagram.from, datagram.payload);
            }
        }
        let mut sim = SimNet::new(14);
        sim.add_actor("10.0.0.2", Echo);
        sim.run_until_idle();
        sim.inject_datagram(Datagram {
            from: SimAddr::new("127.0.0.1", 40_001),
            to: SimAddr::new("10.0.0.2", 9),
            payload: Bytes::copy_from_slice(b"ping"),
        });
        sim.run_until_idle();
        let egress = sim.drain_egress();
        assert_eq!(egress.len(), 1, "reply to the external sender left the sim");
        assert_eq!(egress[0].to, SimAddr::new("127.0.0.1", 40_001));
        assert_eq!(&egress[0].payload[..], b"ping");
    }

    #[test]
    fn external_tcp_connect_delivers_and_replies_leave_via_tcp_egress() {
        struct Server {
            closes: Arc<AtomicUsize>,
        }
        impl Actor for Server {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.listen_tcp(80);
            }
            fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
                match event {
                    TcpEvent::Data { conn, payload } => {
                        assert_eq!(&payload[..], b"GET /");
                        ctx.tcp_send(conn, &b"200 OK"[..]).unwrap();
                    }
                    TcpEvent::Closed { .. } => {
                        self.closes.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => {}
                }
            }
        }
        let closes = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(15);
        sim.add_actor("10.0.0.2", Server { closes: closes.clone() });
        sim.run_until_idle();

        let from = SimAddr::new("127.0.0.1", 50_000);
        let conn = sim.external_tcp_connect(from, SimAddr::new("10.0.0.2", 80)).unwrap();
        sim.inject_tcp_data(conn, &b"GET /"[..]).unwrap();
        sim.run_until_idle();
        let egress = sim.drain_tcp_egress();
        assert_eq!(egress.len(), 1);
        let ExternalTcpEvent::Data { conn: got, payload } = &egress[0] else {
            panic!("expected data, got {egress:?}");
        };
        assert_eq!(*got, conn);
        assert_eq!(&payload[..], b"200 OK");
        assert!(sim.drain_tcp_egress().is_empty(), "drain consumes the queue");

        sim.inject_tcp_close(conn).unwrap();
        sim.run_until_idle();
        assert_eq!(closes.load(Ordering::SeqCst), 1, "server saw the external close");
        assert!(sim.inject_tcp_data(conn, &b"late"[..]).is_err(), "closed conn rejects data");
    }

    #[test]
    fn external_tcp_connect_refused_without_listener() {
        let mut sim = SimNet::new(16);
        let err = sim
            .external_tcp_connect(SimAddr::new("127.0.0.1", 50_001), SimAddr::new("10.0.0.9", 80))
            .unwrap_err();
        assert!(matches!(err, NetError::ConnectionRefused { .. }));
    }

    #[test]
    fn sim_actor_close_towards_external_peer_queues_tcp_egress() {
        struct Closer;
        impl Actor for Closer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.listen_tcp(80);
            }
            fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
                if let TcpEvent::Accepted { conn, .. } = event {
                    ctx.tcp_close(conn).unwrap();
                }
            }
        }
        let mut sim = SimNet::new(17);
        sim.add_actor("10.0.0.2", Closer);
        sim.run_until_idle();
        let conn = sim
            .external_tcp_connect(SimAddr::new("127.0.0.1", 50_002), SimAddr::new("10.0.0.2", 80))
            .unwrap();
        sim.run_until_idle();
        assert_eq!(sim.drain_tcp_egress(), vec![ExternalTcpEvent::Closed { conn }]);
    }

    /// An `Impairments` profile with everything off — the base the chaos
    /// tests tweak one knob at a time.
    fn profile() -> Impairments {
        Impairments::none()
    }

    #[test]
    fn inert_profile_changes_nothing() {
        // A sim with the inert profile explicitly set must replay
        // bit-identically to one that never touched impairments (zero
        // chaos draws, identical latency stream, identical trace).
        fn run(set_profile: bool) -> (SimTime, String) {
            let received = Arc::new(AtomicUsize::new(0));
            let mut sim = SimNet::new(21);
            if set_profile {
                sim.set_impairments(Impairments::none());
            }
            sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received });
            sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("10.0.0.2", 80) });
            sim.run_until_idle();
            (sim.now(), sim.trace_text())
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn full_drop_loses_every_datagram_and_traces_it() {
        let received = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(22);
        sim.set_impairments(Impairments { drop_permille: 1000, ..profile() });
        sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
        sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("10.0.0.2", 80) });
        sim.run_until_idle();
        assert_eq!(received.load(Ordering::SeqCst), 0);
        assert!(sim.trace_text().contains("chaos drop"), "trace: {}", sim.trace_text());
    }

    #[test]
    fn duplication_delivers_an_extra_copy() {
        let received = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(23);
        sim.set_impairments(Impairments { duplicate_permille: 1000, ..profile() });
        sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
        sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("10.0.0.2", 80) });
        sim.run_until_idle();
        assert_eq!(received.load(Ordering::SeqCst), 2);
        assert!(sim.trace_text().contains("chaos dup"));
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        use std::sync::Mutex;
        struct Capture {
            seen: Arc<Mutex<Vec<Vec<u8>>>>,
        }
        impl Actor for Capture {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(80).unwrap();
            }
            fn on_datagram(&mut self, _ctx: &mut Context<'_>, datagram: Datagram) {
                self.seen.lock().unwrap().push(datagram.payload.to_vec());
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sim = SimNet::new(24);
        sim.set_impairments(Impairments { corrupt_permille: 1000, ..profile() });
        sim.add_actor("10.0.0.2", Capture { seen: seen.clone() });
        sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("10.0.0.2", 80) });
        sim.run_until_idle();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        let diff: usize = seen[0].iter().zip(b"hello").filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1, "exactly one byte flipped: {:?}", seen[0]);
        assert!(sim.trace_text().contains("chaos corrupt"));
    }

    #[test]
    fn reorder_defers_within_the_window() {
        let received = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(25);
        sim.set_impairments(Impairments {
            reorder_permille: 1000,
            reorder_window: SimDuration::from_millis(5),
            ..profile()
        });
        sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
        sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("10.0.0.2", 80) });
        let end = sim.run_until_idle();
        assert_eq!(received.load(Ordering::SeqCst), 1);
        assert!(sim.trace_text().contains("chaos delay"));
        // One modelled latency (≤600µs) plus at most the window.
        assert!(end <= SimTime::from_micros(5_600), "deferral bounded: {end}");
    }

    #[test]
    fn partition_drops_datagrams_and_refuses_tcp_until_healed() {
        let received = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(26);
        sim.partition("10.0.0.1", "10.0.0.2");
        sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
        sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("10.0.0.2", 80) });
        sim.run_until_idle();
        assert_eq!(received.load(Ordering::SeqCst), 0);
        assert!(sim.trace_text().contains("chaos partition drop"));

        struct Dialer;
        impl Actor for Dialer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.listen_tcp(99);
                let err = ctx.tcp_connect(SimAddr::new("10.0.0.9", 80)).unwrap_err();
                assert!(matches!(err, NetError::ConnectionRefused { .. }));
            }
        }
        struct Listener;
        impl Actor for Listener {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.listen_tcp(80);
            }
        }
        let mut sim = SimNet::new(26);
        sim.partition("10.0.0.8", "10.0.0.9");
        sim.add_actor("10.0.0.9", Listener);
        sim.add_actor("10.0.0.8", Dialer);
        sim.run_until_idle();
        assert!(sim.trace_text().contains("chaos partition refused tcp"));
    }

    #[test]
    fn partition_cuts_multicast_delivery_per_member() {
        // Regression: the partition key must be the *member* host, not
        // the group address — a partitioned member misses the multicast
        // while the other member still receives it.
        let group = SimAddr::new("239.255.255.250", 1900);
        let cut = Arc::new(AtomicUsize::new(0));
        let open = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(31);
        sim.partition("10.0.0.1", "10.0.0.2");
        sim.add_actor(
            "10.0.0.2",
            Sink { port: 1900, group: Some(group.clone()), received: cut.clone() },
        );
        sim.add_actor(
            "10.0.0.3",
            Sink { port: 1900, group: Some(group.clone()), received: open.clone() },
        );

        struct Caster {
            group: SimAddr,
        }
        impl Actor for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(1900).unwrap();
                ctx.udp_send(1900, self.group.clone(), &b"M-SEARCH"[..]);
            }
        }
        sim.add_actor("10.0.0.1", Caster { group });
        sim.run_until_idle();
        assert_eq!(cut.load(Ordering::SeqCst), 0, "partitioned member must not receive");
        assert_eq!(open.load(Ordering::SeqCst), 1, "unpartitioned member still receives");
        assert!(
            sim.trace_text().contains("member 10.0.0.2"),
            "partition drop names the member: {}",
            sim.trace_text()
        );
    }

    #[test]
    fn partition_for_heals_automatically() {
        struct Resender {
            to: SimAddr,
        }
        impl Actor for Resender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(5000).unwrap();
                ctx.udp_send(5000, self.to.clone(), &b"first"[..]);
                ctx.set_timer(SimDuration::from_millis(20), 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                ctx.udp_send(5000, self.to.clone(), &b"second"[..]);
            }
        }
        let received = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(27);
        sim.partition_for("10.0.0.1", "10.0.0.2", SimDuration::from_millis(10));
        sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
        sim.add_actor("10.0.0.1", Resender { to: SimAddr::new("10.0.0.2", 80) });
        sim.run_until_idle();
        assert_eq!(received.load(Ordering::SeqCst), 1, "only the post-heal datagram lands");
        assert!(sim.trace_text().contains("chaos partition healed"));
    }

    #[test]
    fn injected_datagrams_are_impaired_too() {
        let received = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(28);
        sim.set_impairments(Impairments { drop_permille: 1000, ..profile() });
        sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
        sim.run_until_idle();
        sim.inject_datagram(Datagram {
            from: SimAddr::new("127.0.0.1", 40_001),
            to: SimAddr::new("10.0.0.2", 80),
            payload: Bytes::copy_from_slice(b"ping"),
        });
        sim.run_until_idle();
        assert_eq!(received.load(Ordering::SeqCst), 0);
        assert!(sim.trace_text().contains("chaos drop"));
    }

    #[test]
    fn egress_is_impaired_but_never_deferred() {
        let mut sim = SimNet::new(29);
        sim.set_impairments(Impairments { duplicate_permille: 1000, ..profile() });
        sim.register_external_host("127.0.0.1");
        sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("127.0.0.1", 9000) });
        sim.run_until_idle();
        assert_eq!(sim.drain_egress().len(), 2, "egress duplicated");
        assert!(!sim.trace_text().contains("chaos delay"), "no deferral on egress");
    }

    #[test]
    fn same_seed_and_profile_replay_byte_identically() {
        fn run() -> (String, usize) {
            let received = Arc::new(AtomicUsize::new(0));
            let mut sim = SimNet::new(30);
            sim.set_impairments(Impairments {
                drop_permille: 300,
                duplicate_permille: 300,
                reorder_permille: 300,
                reorder_window: SimDuration::from_millis(3),
                jitter: SimDuration::from_micros(500),
                corrupt_permille: 300,
                partition_permille: 100,
                partition_window: SimDuration::from_millis(5),
            });
            sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
            for i in 0..6 {
                sim.add_actor(format!("10.0.1.{i}"), OneShot { to: SimAddr::new("10.0.0.2", 80) });
            }
            sim.run_until_idle();
            (sim.trace_text(), received.load(Ordering::SeqCst))
        }
        let (trace_a, count_a) = run();
        let (trace_b, count_b) = run();
        assert_eq!(trace_a, trace_b, "byte-identical traces");
        assert_eq!(count_a, count_b);
        assert!(trace_a.contains("chaos"), "the profile actually fired: {trace_a}");
    }

    /// Records the arrival time of every datagram it receives.
    struct TimedSink {
        port: u16,
        arrivals: Arc<std::sync::Mutex<Vec<SimTime>>>,
    }

    impl Actor for TimedSink {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.bind_udp(self.port).unwrap();
        }
        fn on_datagram(&mut self, ctx: &mut Context<'_>, _datagram: Datagram) {
            self.arrivals.lock().unwrap().push(ctx.now());
        }
    }

    /// Sends `payloads` back-to-back at start.
    struct Burst {
        to: SimAddr,
        payloads: Vec<Vec<u8>>,
    }

    impl Actor for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.bind_udp(5000).unwrap();
            for payload in self.payloads.drain(..) {
                ctx.udp_send(5000, self.to.clone(), payload);
            }
        }
    }

    #[test]
    fn bandwidth_serialises_contended_transfers_fairly() {
        // 1 MB/s = 1 byte/µs. A lone 500-byte datagram transmits in
        // 500µs; two sent back-to-back share the link and both finish at
        // 1000µs (fair share, recomputed on every start/finish).
        fn run(payloads: usize) -> Vec<SimTime> {
            let arrivals = Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut sim = SimNet::new(41);
            sim.set_latency(LatencyModel::Fixed(SimDuration::ZERO));
            sim.set_link_bandwidth(1_000_000);
            sim.add_actor("10.0.0.2", TimedSink { port: 80, arrivals: arrivals.clone() });
            sim.add_actor(
                "10.0.0.1",
                Burst {
                    to: SimAddr::new("10.0.0.2", 80),
                    payloads: vec![vec![0u8; 500]; payloads],
                },
            );
            sim.run_until_idle();
            let out = arrivals.lock().unwrap().clone();
            out
        }
        assert_eq!(run(1), vec![SimTime::from_micros(500)]);
        assert_eq!(run(2), vec![SimTime::from_micros(1_000); 2]);
        assert_eq!(run(4), vec![SimTime::from_micros(2_000); 4]);
    }

    #[test]
    fn bandwidth_composes_with_latency_draws() {
        // Transmission time and the sampled latency add up; the latency
        // stream is drawn at send time, so the draw order matches an
        // unmodelled run.
        let arrivals = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim = SimNet::new(42);
        sim.set_latency(LatencyModel::Fixed(SimDuration::from_micros(300)));
        sim.set_link_bandwidth(1_000_000);
        sim.add_actor("10.0.0.2", TimedSink { port: 80, arrivals: arrivals.clone() });
        sim.add_actor(
            "10.0.0.1",
            Burst { to: SimAddr::new("10.0.0.2", 80), payloads: vec![vec![0u8; 500]] },
        );
        sim.run_until_idle();
        assert_eq!(*arrivals.lock().unwrap(), vec![SimTime::from_micros(800)]);
        assert!(sim.trace_text().contains("bw start"), "trace: {}", sim.trace_text());
        assert!(sim.trace_text().contains("bw done"));
    }

    #[test]
    fn late_joiner_slows_the_first_transfer_down() {
        // Fair share is *recomputed* when a transfer joins mid-flight: a
        // 1000-byte transfer alone would finish at 1000µs, but a second
        // one starting at 500µs halves its share — the first finishes at
        // 1500µs, the late joiner (500 bytes head start behind) at
        // 2000µs... the exact fluid-model schedule.
        struct Staggered {
            to: SimAddr,
        }
        impl Actor for Staggered {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(5000).unwrap();
                ctx.udp_send(5000, self.to.clone(), vec![0u8; 1000]);
                ctx.set_timer(SimDuration::from_micros(500), 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                ctx.udp_send(5000, self.to.clone(), vec![0u8; 1000]);
            }
        }
        let arrivals = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim = SimNet::new(43);
        sim.set_latency(LatencyModel::Fixed(SimDuration::ZERO));
        sim.set_link_bandwidth(1_000_000);
        sim.add_actor("10.0.0.2", TimedSink { port: 80, arrivals: arrivals.clone() });
        sim.add_actor("10.0.0.1", Staggered { to: SimAddr::new("10.0.0.2", 80) });
        sim.run_until_idle();
        assert_eq!(
            *arrivals.lock().unwrap(),
            vec![SimTime::from_micros(1_500), SimTime::from_micros(2_000)]
        );
    }

    #[test]
    fn bandwidth_delays_egress_until_transmitted() {
        let mut sim = SimNet::new(44);
        sim.set_latency(LatencyModel::Fixed(SimDuration::ZERO));
        sim.set_link_bandwidth(1_000); // 1000 B/s: 5 bytes take 5ms
        sim.register_external_host("127.0.0.1");
        sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("127.0.0.1", 9000) });
        sim.run_until(SimTime::from_millis(2));
        assert!(sim.drain_egress().is_empty(), "still transmitting");
        sim.run_until_idle();
        assert_eq!(sim.drain_egress().len(), 1, "egress surfaced after transmission");
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }

    #[test]
    fn inert_bandwidth_and_pass_schedule_change_nothing() {
        // Explicitly installing the disabled bandwidth model and the
        // inert pass schedule replays bit-identically to a run that
        // never heard of either (zero extra RNG draws, identical trace).
        fn run(configure: bool) -> (SimTime, String) {
            let received = Arc::new(AtomicUsize::new(0));
            let mut sim = SimNet::new(45);
            if configure {
                sim.set_link_bandwidth(0);
                sim.set_pass_schedule(PassSchedule::always_open());
            }
            sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received });
            sim.add_actor("10.0.0.1", OneShot { to: SimAddr::new("10.0.0.2", 80) });
            sim.run_until_idle();
            (sim.now(), sim.trace_text())
        }
        assert_eq!(run(false), run(true));
    }

    /// A two-slot schedule with 10ms windows and a hub: slot 0 hosts use
    /// even windows, slot 1 hosts odd ones; the hub is always reachable.
    fn two_slot_schedule(hub: &str, slot1_host: &str) -> PassSchedule {
        PassSchedule {
            window: SimDuration::from_millis(10),
            slots: 2,
            hub: Some(Arc::from(hub)),
            assignments: BTreeMap::from([(Arc::from(slot1_host), 1u32)]),
            default_slot: 0,
        }
    }

    #[test]
    fn pass_schedule_gates_links_by_window() {
        let schedule = two_slot_schedule("10.0.0.2", "10.0.0.3");
        // Slot arithmetic: window 0 → slot 0, window 1 → slot 1.
        assert_eq!(schedule.active_slot(SimTime::from_millis(3)), 0);
        assert_eq!(schedule.active_slot(SimTime::from_millis(13)), 1);
        // Hub links follow the non-hub endpoint's slot.
        assert!(schedule.open_at(SimTime::from_millis(3), "10.0.1.1", "10.0.0.2"));
        assert!(!schedule.open_at(SimTime::from_millis(13), "10.0.1.1", "10.0.0.2"));
        assert!(!schedule.open_at(SimTime::from_millis(3), "10.0.0.3", "10.0.0.2"));
        assert!(schedule.open_at(SimTime::from_millis(13), "10.0.0.3", "10.0.0.2"));
        // Two non-hub hosts in different slots can never talk directly.
        assert!(!schedule.open_at(SimTime::from_millis(3), "10.0.1.1", "10.0.0.3"));
        assert!(!schedule.open_at(SimTime::from_millis(13), "10.0.1.1", "10.0.0.3"));
        assert_eq!(schedule.next_open(SimTime::from_millis(3), "10.0.1.1", "10.0.0.3"), None);
        // next_open lands on the next matching window boundary.
        assert_eq!(
            schedule.next_open(SimTime::from_millis(3), "10.0.0.3", "10.0.0.2"),
            Some(SimTime::from_millis(10))
        );
        assert_eq!(
            schedule.next_open(SimTime::from_millis(13), "10.0.1.1", "10.0.0.2"),
            Some(SimTime::from_millis(20))
        );
    }

    #[test]
    fn pass_closed_window_drops_datagrams_and_traces() {
        struct Resender {
            to: SimAddr,
        }
        impl Actor for Resender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(5000).unwrap();
                // Window 0: the slot-1 host's uplink to the hub is
                // closed. Window 1 (11ms): open.
                ctx.udp_send(5000, self.to.clone(), &b"early"[..]);
                ctx.set_timer(SimDuration::from_millis(11), 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                ctx.udp_send(5000, self.to.clone(), &b"late"[..]);
            }
        }
        let received = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(46);
        sim.set_pass_schedule(two_slot_schedule("10.0.0.2", "10.0.0.3"));
        sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
        sim.add_actor("10.0.0.3", Resender { to: SimAddr::new("10.0.0.2", 80) });
        sim.run_until_idle();
        assert_eq!(received.load(Ordering::SeqCst), 1, "only the in-window datagram lands");
        assert!(sim.trace_text().contains("pass closed"), "trace: {}", sim.trace_text());
    }

    #[test]
    fn link_open_and_backlog_report_link_state() {
        struct Reporter {
            open_early: Arc<AtomicUsize>,
        }
        impl Actor for Reporter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(5000).unwrap();
                let hub = SimAddr::new("10.0.0.2", 80);
                self.open_early.store(usize::from(ctx.link_open(&hub)), Ordering::SeqCst);
                // Saturate the uplink, then observe the backlog.
                ctx.udp_send(5000, hub.clone(), vec![0u8; 4_000]);
                assert!(ctx.link_backlog(&hub) >= 3_000, "backlog visible");
            }
        }
        let open_early = Arc::new(AtomicUsize::new(7));
        let received = Arc::new(AtomicUsize::new(0));
        let mut sim = SimNet::new(47);
        sim.set_latency(LatencyModel::Fixed(SimDuration::ZERO));
        sim.set_link_bandwidth(1_000_000);
        sim.set_pass_schedule(two_slot_schedule("10.0.0.2", "10.0.0.3"));
        sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
        sim.add_actor("10.0.1.1", Reporter { open_early: open_early.clone() });
        sim.run_until_idle();
        assert_eq!(open_early.load(Ordering::SeqCst), 1, "slot-0 uplink open in window 0");
        assert_eq!(received.load(Ordering::SeqCst), 1);

        // The slot-1 host sees its hub uplink closed during window 0.
        struct ClosedCheck;
        impl Actor for ClosedCheck {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                assert!(!ctx.link_open(&SimAddr::new("10.0.0.2", 80)));
                assert_eq!(ctx.link_backlog(&SimAddr::new("10.0.0.2", 80)), 0);
            }
        }
        let mut sim = SimNet::new(48);
        sim.set_pass_schedule(two_slot_schedule("10.0.0.2", "10.0.0.3"));
        sim.add_actor("10.0.0.3", ClosedCheck);
        sim.run_until_idle();
    }

    #[test]
    fn partition_closes_link_open() {
        struct Check;
        impl Actor for Check {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                assert!(!ctx.link_open(&SimAddr::new("10.0.0.2", 80)), "partitioned");
                assert!(ctx.link_open(&SimAddr::new("10.0.0.9", 80)), "other links fine");
            }
        }
        let mut sim = SimNet::new(49);
        sim.partition("10.0.0.1", "10.0.0.2");
        sim.add_actor("10.0.0.1", Check);
        sim.run_until_idle();
    }

    #[test]
    fn bandwidth_and_pass_replay_byte_identically() {
        fn run() -> (String, SimTime) {
            let received = Arc::new(AtomicUsize::new(0));
            let mut sim = SimNet::new(50);
            sim.set_link_bandwidth(100_000);
            sim.set_pass_schedule(two_slot_schedule("10.0.0.2", "10.0.0.3"));
            sim.set_impairments(Impairments {
                drop_permille: 200,
                duplicate_permille: 200,
                jitter: SimDuration::from_micros(400),
                ..Impairments::none()
            });
            sim.add_actor("10.0.0.2", Sink { port: 80, group: None, received: received.clone() });
            for i in 0..4 {
                sim.add_actor(format!("10.0.1.{i}"), OneShot { to: SimAddr::new("10.0.0.2", 80) });
            }
            sim.add_actor("10.0.0.3", OneShot { to: SimAddr::new("10.0.0.2", 80) });
            sim.run_until_idle();
            (sim.trace_text(), sim.now())
        }
        let (trace_a, end_a) = run();
        let (trace_b, end_b) = run();
        assert_eq!(trace_a, trace_b);
        assert_eq!(end_a, end_b);
        assert!(trace_a.contains("bw start"), "bandwidth fired: {trace_a}");
        assert!(trace_a.contains("pass closed"), "pass gate fired: {trace_a}");
    }

    #[test]
    fn rand_range_is_seeded() {
        struct R {
            out: Arc<AtomicU64>,
        }
        impl Actor for R {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.out.store(ctx.rand_range(0, 1_000_000), Ordering::SeqCst);
            }
        }
        let run = |seed| {
            let out = Arc::new(AtomicU64::new(0));
            let mut sim = SimNet::new(seed);
            sim.add_actor("h", R { out: out.clone() });
            sim.run_until_idle();
            out.load(Ordering::SeqCst)
        };
        assert_eq!(run(9), run(9));
    }
}
