//! The sharded bridge runtime: throughput that scales with cores.
//!
//! One [`crate::BridgeEngine`] is inherently single-threaded — it is an
//! [`Actor`] inside a deterministic event loop. A [`ShardedBridge`]
//! deploys **N independent engines** ("shards"), each owning a private
//! single-threaded [`SimNet`] on its own worker thread, and routes every
//! client to exactly one shard:
//!
//! ```text
//!                        ┌─ queue ─▶ worker 0: SimNet[engine₀ (+svc)] ─▶ outbox 0
//!   ingress ─ hash(src ──┼─ queue ─▶ worker 1: SimNet[engine₁ (+svc)] ─▶ outbox 1
//!   batches    host) ────┼─ queue ─▶ worker 2: SimNet[engine₂ (+svc)] ─▶ outbox 2
//!                        └─ queue ─▶ worker 3: SimNet[engine₃ (+svc)] ─▶ outbox 3
//! ```
//!
//! * **Session pinning** — a datagram is dispatched by the FxHash of its
//!   *source host*, and a TCP connect by the connecting host, so every
//!   message of one originator (and therefore every event of one
//!   session, whose [`crate::SessionKey`] derives from that originator)
//!   lands on the same shard. Within a shard the engine's session table,
//!   executions and compose buffers stay single-threaded and lock-free;
//!   per-session message ordering is preserved because each shard's
//!   queue is drained FIFO by one worker.
//! * **Batched hand-off** — [`ShardedBridge::dispatch`] moves a whole
//!   batch of inputs per queue operation (one lock + one wake per shard
//!   per pump, not per datagram).
//! * **Stats** — every shard records into its own [`crate::BridgeStats`]
//!   and mirrors lifecycle counters into one shared lock-free gauge
//!   ([`crate::ShardedStats`]).
//!
//! The driver side mirrors the realnet gateway contract: inject ingress,
//! advance virtual time, drain egress. Replies the engines address to
//! external endpoints come back through per-shard outboxes tagged with
//! the shard index, so a target-side response can be fed back to the
//! shard that emitted the request — exactly how per-shard real sockets
//! behave (the reply returns to the socket that sent the query).
//!
//! Correlator caveat: a [`crate::SessionCorrelator`] that collapses
//! retransmissions *across source hosts* only sees traffic of its own
//! shard; host-affine keying is the sharding contract.

use crate::engine::BridgeEngine;
use crate::host::{BridgeCommand, EngineHost};
use fxhash::FxHashMap;
use starlink_net::{Bytes, Datagram, ExternalTcpEvent, SimAddr, SimNet, SimTime, TraceIter};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// A single-delivery slot carrying one [`BridgeCommand`] through the
/// shard batch queues. `ShardInput` must stay `Clone` for the gateway's
/// injection path, but an engine is not cloneable — so the command rides
/// in a shared slot and the first delivery takes it (a cloned slot
/// delivers nothing, which never happens on the one-queue path).
#[derive(Clone)]
pub struct ControlSlot(Arc<Mutex<Option<Box<BridgeCommand>>>>);

impl ControlSlot {
    /// Wraps a command for one shard's queue.
    pub fn new(command: BridgeCommand) -> Self {
        ControlSlot(Arc::new(Mutex::new(Some(Box::new(command)))))
    }

    /// Takes the command out (first caller wins).
    pub fn take(&self) -> Option<Box<BridgeCommand>> {
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
    }
}

impl std::fmt::Debug for ControlSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let taken = self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_none();
        f.debug_struct("ControlSlot").field("delivered", &taken).finish()
    }
}

/// One ingress item for [`ShardedBridge::dispatch`]. TCP streams are
/// addressed by a caller-chosen `token` (unique per connection) rather
/// than a raw connection id, because connection ids are only meaningful
/// inside a single shard's simulation.
#[derive(Debug, Clone)]
pub enum ShardInput {
    /// A datagram from an external client; `from.host` pins the shard.
    Datagram(Datagram),
    /// An external client opens a TCP connection to a listening port of
    /// the bridge; `from.host` pins the shard and `token` names the
    /// connection in later inputs/outputs.
    TcpConnect {
        /// Caller-chosen connection handle (unique while open).
        token: u64,
        /// The connecting external endpoint.
        from: SimAddr,
        /// The bridge listener to connect to.
        to: SimAddr,
    },
    /// Stream bytes from the external end of connection `token`.
    TcpData {
        /// The connection handle from [`ShardInput::TcpConnect`].
        token: u64,
        /// Payload bytes.
        payload: Bytes,
    },
    /// The external end closes connection `token`.
    TcpClose {
        /// The connection handle.
        token: u64,
    },
    /// A control-plane command (deploy/swap/undeploy) for this shard's
    /// [`EngineHost`], delivered out-of-band at the batch's virtual time
    /// — serialized against traffic like any other input.
    Control(ControlSlot),
}

/// One egress item drained from a shard's outbox.
#[derive(Debug, Clone)]
pub enum ShardOutput {
    /// A datagram the shard's engine addressed to an external endpoint.
    Datagram(Datagram),
    /// Stream bytes for the external end of connection `token`.
    TcpData {
        /// The connection handle.
        token: u64,
        /// Payload bytes.
        payload: Bytes,
    },
    /// The simulated side closed connection `token`.
    TcpClosed {
        /// The connection handle.
        token: u64,
    },
    /// A [`ShardInput::TcpConnect`] failed (nothing listening).
    TcpConnectFailed {
        /// The connection handle.
        token: u64,
        /// Why the connect failed.
        error: String,
    },
}

/// A batch of work for one shard.
struct Batch {
    now: SimTime,
    inputs: Vec<ShardInput>,
}

/// Shared driver↔worker channel state of one shard.
struct ChannelState {
    queue: VecDeque<Batch>,
    submitted: u64,
    completed: u64,
    shutdown: bool,
}

struct Channel {
    state: Mutex<ChannelState>,
    /// Wakes the worker when work (or shutdown) arrives.
    work: Condvar,
    /// Wakes [`ShardedBridge::flush`] when a batch completes.
    done: Condvar,
}

impl Channel {
    fn new() -> Self {
        Channel {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                submitted: 0,
                completed: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ChannelState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A callback a shard worker fires after publishing egress into its
/// outbox — how a readiness-driven gateway thread sleeping in
/// `epoll_wait` learns there is egress to flush (it registers its
/// waker here via [`ShardHandle::set_egress_notifier`]).
type EgressNotifier = Box<dyn Fn() + Send>;

/// A callback a shard worker streams fresh simulation trace entries
/// into after each batch — the structured trace-export hook
/// ([`ShardHandle::set_trace_sink`]). Receives every retained entry
/// exactly once, in order, plus how many newer-than-streamed events the
/// shard's ring overwrote before the batch ended.
type TraceSink = Box<dyn Fn(u64, TraceIter<'_>) + Send>;

struct Shard {
    channel: Arc<Channel>,
    outbox: Arc<Mutex<Vec<ShardOutput>>>,
    notifier: Arc<Mutex<Option<EgressNotifier>>>,
    trace_sink: Arc<Mutex<Option<TraceSink>>>,
    worker: Option<JoinHandle<()>>,
}

/// A cloneable per-shard ingress/egress endpoint for external gateway
/// threads: submit input batches straight onto one shard's queue and
/// drain its outbox, without going through the [`ShardedBridge`]
/// driver's host-pinning dispatch.
///
/// The multi-threaded gateway front uses one handle per shard, each
/// owned by exactly one gateway thread, so per-shard batch ordering
/// (and therefore the monotonic virtual clock and per-session FIFO) is
/// preserved. Handles share the `submitted`/`completed` counters with
/// the bridge, so [`ShardedBridge::flush`] still covers work submitted
/// through handles.
///
/// **Contract:** every submitter of one shard must keep that shard's
/// `now` monotonically non-decreasing — one thread per shard is the
/// intended topology. Host-pinned affinity becomes the *caller's*
/// obligation: route each client's traffic to the handle of
/// [`ShardedBridge::shard_of`] (or keep a client on one per-shard
/// socket, which is how `ShardedGateway` does it).
#[derive(Clone)]
pub struct ShardHandle {
    index: usize,
    channel: Arc<Channel>,
    outbox: Arc<Mutex<Vec<ShardOutput>>>,
    notifier: Arc<Mutex<Option<EgressNotifier>>>,
    trace_sink: Arc<Mutex<Option<TraceSink>>>,
}

impl std::fmt::Debug for ShardHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHandle").field("index", &self.index).finish()
    }
}

impl ShardHandle {
    /// The shard this handle feeds.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Queues one batch of inputs and advances this shard's virtual
    /// clock to `now` (an empty batch still advances timers).
    pub fn submit(&self, now: SimTime, inputs: Vec<ShardInput>) {
        let mut state = self.channel.lock();
        state.queue.push_back(Batch { now, inputs });
        state.submitted += 1;
        drop(state);
        self.channel.work.notify_one();
    }

    /// Moves everything from this shard's outbox into `out` (appended;
    /// `out` is not cleared).
    pub fn drain_outbox(&self, out: &mut Vec<ShardOutput>) {
        let mut outbox = self.outbox.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        out.append(&mut outbox);
    }

    /// Installs `notify`, fired by the shard worker after each batch
    /// that published egress — typically an `epoll` waker, so the
    /// gateway thread blocked in its reactor flushes the outbox
    /// immediately instead of on its next tick.
    pub fn set_egress_notifier(&self, notify: impl Fn() + Send + 'static) {
        let mut slot = self.notifier.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some(Box::new(notify));
    }

    /// Removes the notifier (e.g. before the gateway thread exits).
    pub fn clear_egress_notifier(&self) {
        let mut slot = self.notifier.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = None;
    }

    /// Installs `sink`, fed after each batch with the count of events
    /// this shard's trace ring overwrote before they could be streamed
    /// and the fresh entries it still holds (each exactly once, in
    /// order) — the export hook structured trace streaming builds on.
    /// Entries recorded before installation are not replayed.
    pub fn set_trace_sink(&self, sink: impl Fn(u64, TraceIter<'_>) + Send + 'static) {
        let mut slot = self.trace_sink.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some(Box::new(sink));
    }

    /// Removes the trace sink.
    pub fn clear_trace_sink(&self) {
        let mut slot = self.trace_sink.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = None;
    }

    /// Batches submitted but not yet completed by the worker.
    pub fn backlog(&self) -> u64 {
        let state = self.channel.lock();
        state.submitted - state.completed
    }
}

/// A sharded multi-threaded bridge deployment (see the module docs).
pub struct ShardedBridge {
    shards: Vec<Shard>,
    host: Arc<str>,
    /// Open TCP connection token → owning shard (driver side).
    tokens: FxHashMap<u64, usize>,
    /// Per-shard dispatch scratch, reused across calls.
    pending: Vec<Vec<ShardInput>>,
    /// Fresh traffic dropped by any shard's host because no version was
    /// active to take it (undeploy without replacement).
    unrouted: Arc<AtomicU64>,
}

impl std::fmt::Debug for ShardedBridge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBridge").field("shards", &self.shards.len()).finish()
    }
}

impl ShardedBridge {
    /// Launches one worker thread per engine in `engines` (typically
    /// from [`crate::Starlink::deploy_sharded`]). Every engine is hosted
    /// at `host` inside its own seeded [`SimNet`] (`seed + shard`);
    /// `populate` may add further actors to each shard's simulation —
    /// e.g. a target-side service — and tune its latency model before
    /// the worker starts.
    ///
    /// # Panics
    ///
    /// Panics when `engines` is empty.
    pub fn launch(
        seed: u64,
        host: impl Into<String>,
        engines: Vec<BridgeEngine>,
        mut populate: impl FnMut(usize, &mut SimNet),
    ) -> Self {
        assert!(!engines.is_empty(), "a sharded bridge needs at least one shard");
        let host = host.into();
        let unrouted = Arc::new(AtomicU64::new(0));
        let mut shards = Vec::with_capacity(engines.len());
        for (index, engine) in engines.into_iter().enumerate() {
            let mut sim = SimNet::new(seed.wrapping_add(index as u64));
            // Every shard hosts its engine behind a multi-version
            // EngineHost, so a live control plane can drain-then-swap
            // versions without restarting the worker.
            sim.add_actor(host.clone(), EngineHost::new(1, engine, unrouted.clone()));
            populate(index, &mut sim);
            // Run every actor's on_start (port binds, listeners) without
            // firing any future timer.
            sim.run_until(SimTime::ZERO);
            let channel = Arc::new(Channel::new());
            let outbox = Arc::new(Mutex::new(Vec::new()));
            let notifier: Arc<Mutex<Option<EgressNotifier>>> = Arc::new(Mutex::new(None));
            let trace_sink: Arc<Mutex<Option<TraceSink>>> = Arc::new(Mutex::new(None));
            let worker = {
                let channel = channel.clone();
                let outbox = outbox.clone();
                let notifier = notifier.clone();
                let trace_sink = trace_sink.clone();
                let host = host.clone();
                std::thread::spawn(move || {
                    shard_worker(sim, &host, &channel, &outbox, &notifier, &trace_sink);
                })
            };
            shards.push(Shard { channel, outbox, notifier, trace_sink, worker: Some(worker) });
        }
        let pending = (0..shards.len()).map(|_| Vec::new()).collect();
        ShardedBridge {
            shards,
            host: Arc::from(host),
            tokens: FxHashMap::default(),
            pending,
            unrouted,
        }
    }

    /// The simulated host every shard's engine is deployed at.
    pub fn host(&self) -> &Arc<str> {
        &self.host
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One [`ShardHandle`] per shard, for external gateway threads that
    /// feed and drain shards directly (see the handle's contract).
    pub fn handles(&self) -> Vec<ShardHandle> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardHandle {
                index,
                channel: shard.channel.clone(),
                outbox: shard.outbox.clone(),
                notifier: shard.notifier.clone(),
                trace_sink: shard.trace_sink.clone(),
            })
            .collect()
    }

    /// Fresh traffic dropped fleet-wide because no bridge version was
    /// active on the receiving shard (zero unless a case was undeployed
    /// without a replacement).
    pub fn unrouted(&self) -> u64 {
        self.unrouted.load(Ordering::Relaxed)
    }

    /// The shared unrouted-traffic counter itself (for export surfaces
    /// that outlive a borrow of the bridge).
    pub(crate) fn unrouted_handle(&self) -> Arc<AtomicU64> {
        self.unrouted.clone()
    }

    /// The shard a client host is pinned to.
    pub fn shard_of(&self, client_host: &str) -> usize {
        (fxhash::hash64(client_host) % self.shards.len() as u64) as usize
    }

    /// Dispatches a batch of ingress inputs and advances every shard's
    /// virtual clock to `now` (monotonically increasing across calls).
    /// Datagrams and connects are pinned by source host; stream data and
    /// closes follow their connection's token. All shards receive a
    /// batch — even an empty one — so idle shards still advance their
    /// clocks and fire due timers (session idle expiry).
    pub fn dispatch(&mut self, now: SimTime, inputs: impl IntoIterator<Item = ShardInput>) {
        for input in inputs {
            let shard = match &input {
                ShardInput::Datagram(datagram) => self.shard_of(&datagram.from.host),
                ShardInput::TcpConnect { token, from, .. } => {
                    let shard = self.shard_of(&from.host);
                    self.tokens.insert(*token, shard);
                    shard
                }
                ShardInput::TcpData { token, .. } => match self.tokens.get(token) {
                    Some(&shard) => shard,
                    // Unknown token: the connection never opened (or
                    // already closed); nothing to route.
                    None => continue,
                },
                ShardInput::TcpClose { token } => match self.tokens.remove(token) {
                    Some(shard) => shard,
                    None => continue,
                },
                // Control commands are per-shard (each shard gets its
                // own engine instance) and cannot be host-pinned; they
                // only travel via dispatch_control or a ShardHandle.
                ShardInput::Control(_) => continue,
            };
            self.pending[shard].push(input);
        }
        for (shard, inputs) in self.shards.iter().zip(self.pending.iter_mut()) {
            let mut state = shard.channel.lock();
            state.queue.push_back(Batch { now, inputs: std::mem::take(inputs) });
            state.submitted += 1;
            drop(state);
            shard.channel.work.notify_one();
        }
    }

    /// Advances every shard's virtual clock to `now` without new inputs
    /// (lets pending in-simulation events and timers run).
    pub fn advance(&mut self, now: SimTime) {
        self.dispatch(now, std::iter::empty());
    }

    /// Submits one control command to every shard at virtual time `now`
    /// — the drain-then-swap entry point. `commands` must hold exactly
    /// one command per shard (each shard installs its own engine
    /// instance); they ride the ordinary batch queues, so the swap is
    /// serialized against traffic already dispatched.
    ///
    /// # Panics
    ///
    /// Panics when `commands.len() != self.shard_count()`.
    pub fn dispatch_control(&mut self, now: SimTime, commands: Vec<BridgeCommand>) {
        assert_eq!(
            commands.len(),
            self.shards.len(),
            "dispatch_control needs one command per shard"
        );
        for (shard, command) in commands.into_iter().enumerate() {
            self.pending[shard].push(ShardInput::Control(ControlSlot::new(command)));
        }
        self.dispatch(now, std::iter::empty());
    }

    /// Drains every shard's outbox into `out` as `(shard, output)`
    /// pairs, in shard order. Target-side responses should be fed back
    /// via [`ShardedBridge::dispatch_to_shard`] to the shard that
    /// emitted the request.
    pub fn drain_into(&mut self, out: &mut Vec<(usize, ShardOutput)>) {
        for (index, shard) in self.shards.iter().enumerate() {
            let mut outbox = shard.outbox.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for output in outbox.drain(..) {
                // A connection the simulated side closed — or that never
                // opened — is dead: drop its routing entry here so the
                // token map cannot grow without bound on a long-running
                // gateway, and so later data for the token is discarded
                // at the driver instead of routed to a stale shard.
                match &output {
                    ShardOutput::TcpClosed { token }
                    | ShardOutput::TcpConnectFailed { token, .. } => {
                        self.tokens.remove(token);
                    }
                    _ => {}
                }
                out.push((index, output));
            }
        }
    }

    /// Queues a datagram directly onto one shard, bypassing source-host
    /// pinning — the reply path for target-side responders that answer
    /// whichever shard queried them. Delivered with the *next*
    /// [`ShardedBridge::dispatch`]/[`ShardedBridge::advance`] call.
    pub fn dispatch_to_shard(&mut self, shard: usize, datagram: Datagram) {
        self.pending[shard].push(ShardInput::Datagram(datagram));
    }

    /// Blocks until every shard has processed every batch submitted so
    /// far — the barrier tests use to read stable stats.
    ///
    /// # Panics
    ///
    /// Panics when a shard worker died (engine panic) with work still
    /// queued.
    pub fn flush(&self) {
        for shard in &self.shards {
            let mut state = shard.channel.lock();
            while state.completed < state.submitted {
                let worker_dead =
                    shard.worker.as_ref().is_none_or(std::thread::JoinHandle::is_finished);
                if worker_dead {
                    panic!("shard worker exited with {} batches pending", {
                        state.submitted - state.completed
                    });
                }
                let (next, _) = shard
                    .channel
                    .done
                    .wait_timeout(state, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state = next;
            }
        }
    }
}

impl Drop for ShardedBridge {
    fn drop(&mut self) {
        for shard in &self.shards {
            let mut state = shard.channel.lock();
            state.shutdown = true;
            drop(state);
            shard.channel.work.notify_one();
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                // A worker that panicked already printed its message;
                // dropping the bridge must not panic again.
                let _ = worker.join();
            }
        }
    }
}

/// The worker loop of one shard: pop batches FIFO, feed the private
/// simulation, run it to the batch's virtual time, and publish egress.
fn shard_worker(
    mut sim: SimNet,
    host: &str,
    channel: &Channel,
    outbox: &Mutex<Vec<ShardOutput>>,
    notifier: &Mutex<Option<EgressNotifier>>,
    trace_sink: &Mutex<Option<TraceSink>>,
) {
    // Worker-local TCP token maps (connection ids are shard-private).
    let mut conn_of: FxHashMap<u64, starlink_net::ConnId> = FxHashMap::default();
    let mut token_of: FxHashMap<starlink_net::ConnId, u64> = FxHashMap::default();
    let mut egress: Vec<Datagram> = Vec::new();
    let mut staged: Vec<ShardOutput> = Vec::new();
    // Sequence number of the next trace event to stream to the sink.
    let mut streamed = sim.trace().recorded();
    loop {
        let batch = {
            let mut state = channel.lock();
            loop {
                if let Some(batch) = state.queue.pop_front() {
                    break Some(batch);
                }
                if state.shutdown {
                    break None;
                }
                state = channel.work.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some(Batch { now, inputs }) = batch else { return };

        for input in inputs {
            match input {
                ShardInput::Datagram(datagram) => sim.inject_datagram(datagram),
                ShardInput::TcpConnect { token, from, to } => {
                    match sim.external_tcp_connect(from, to) {
                        Ok(conn) => {
                            conn_of.insert(token, conn);
                            token_of.insert(conn, token);
                        }
                        Err(err) => staged
                            .push(ShardOutput::TcpConnectFailed { token, error: err.to_string() }),
                    }
                }
                ShardInput::TcpData { token, payload } => {
                    if let Some(&conn) = conn_of.get(&token) {
                        if sim.inject_tcp_data(conn, payload).is_err() {
                            staged.push(ShardOutput::TcpClosed { token });
                        }
                    }
                }
                ShardInput::TcpClose { token } => {
                    if let Some(conn) = conn_of.remove(&token) {
                        token_of.remove(&conn);
                        let _ = sim.inject_tcp_close(conn);
                    }
                }
                ShardInput::Control(slot) => {
                    // First delivery wins; a cloned slot is empty.
                    if let Some(command) = slot.take() {
                        sim.deliver_control(host, command as Box<dyn std::any::Any + Send>);
                    }
                }
            }
        }
        sim.run_until(now);

        sim.drain_egress_into(&mut egress);
        staged.extend(egress.drain(..).map(ShardOutput::Datagram));
        for event in sim.drain_tcp_egress() {
            match event {
                ExternalTcpEvent::Data { conn, payload } => {
                    if let Some(&token) = token_of.get(&conn) {
                        staged.push(ShardOutput::TcpData { token, payload });
                    }
                }
                ExternalTcpEvent::Closed { conn } => {
                    if let Some(token) = token_of.remove(&conn) {
                        conn_of.remove(&token);
                        staged.push(ShardOutput::TcpClosed { token });
                    }
                }
            }
        }
        if !staged.is_empty() {
            let mut out = outbox.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            out.append(&mut staged);
            drop(out);
            // Egress landed: wake a gateway thread sleeping in its
            // reactor so the outbox flushes now, not on the next tick.
            let slot = notifier.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(notify) = slot.as_ref() {
                notify();
            }
        }

        // Stream fresh trace entries to the export sink, exactly once
        // each, by sequence number: events the ring overwrote within
        // this batch reach the sink as a lost count. The cursor advances
        // even with no sink installed, so a late-installed sink starts
        // from "now" instead of replaying history.
        let trace = sim.trace();
        if streamed < trace.recorded() {
            let slot = trace_sink.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(sink) = slot.as_ref() {
                let (lost, fresh) = trace.since(streamed);
                sink(lost, fresh);
            }
            streamed = trace.recorded();
        }

        let mut state = channel.lock();
        state.completed += 1;
        drop(state);
        channel.done.notify_all();
    }
}
