//! The multi-threaded gateway front: N gateway threads, each running a
//! readiness reactor over its share of per-shard real sockets, feeding
//! the [`ShardedBridge`] ingress queues and flushing per-shard outbox
//! egress back out.
//!
//! ```text
//!                 gateway thread 0                 gateway thread 1
//!              ┌───────────────────┐            ┌───────────────────┐
//!   real UDP ─▶│ GatewayReactor    │  real UDP ─▶ GatewayReactor    │
//!   sockets    │  epoll_wait ──────┼─ batches ──┼─ epoll_wait ──────┼─ batches
//!   (shard 0,2 │  drain ready only │     │      │ (shard 1,3        │    │
//!    × ports)  └───────▲───────────┘     ▼      │  × ports)         │    ▼
//!                      │        ShardHandle 0,2 └──────▲────────────┘  ShardHandle 1,3
//!                 waker│               │ submit        │waker            │ submit
//!                      │               ▼               │                 ▼
//!              egress  │        shard workers 0,2      │          shard workers 1,3
//!              notifier└───────────── outbox ──────────┴─────────────  outbox
//! ```
//!
//! **Affinity contract.** Every shard × simulated-port pair gets its own
//! real loopback socket, and each shard is owned by exactly one gateway
//! thread (`shard % threads`). A datagram arriving on the socket of
//! shard *s* is submitted to shard *s* — no hashing at the gateway, no
//! cross-thread handoff — and egress a shard emits from simulated port
//! *p* leaves through that same `(s, p)` socket, so a client that keeps
//! talking to one socket keeps one session on one shard, and a
//! target-side responder that answers the socket that queried it
//! automatically reaches the shard that asked. Clients that want the
//! FxHash pinning of [`ShardedBridge::shard_of`] resolve their shard
//! with [`ShardedGateway::shard_of`] and use that shard's socket
//! ([`ShardedGateway::ingress_real_port`]); either way all traffic of
//! one client host lands on one shard, which is the sharding contract.
//!
//! Where epoll is unavailable the same topology runs on a polling
//! front (bounded backoff sleeps instead of `epoll_wait`) — check
//! [`ShardedGateway::mode`].

use crate::host::BridgeCommand;
use crate::metrics::MetricsHub;
use crate::shard::{ControlSlot, ShardHandle, ShardInput, ShardOutput, ShardedBridge};
use starlink_net::{
    readiness_supported, BufferPool, Bytes, Datagram, GatewayReactor, LoopbackUdp, MetricsServer,
    NetError, ReadinessWaker, SimAddr, SimTime,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for [`ShardedGateway::launch`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The simulated UDP ports every shard's engine listens on; each
    /// gets one real socket per shard.
    pub udp_ports: Vec<u16>,
    /// Gateway threads (each runs one reactor). Clamped to the shard
    /// count — more threads than shards would own nothing.
    pub threads: usize,
    /// Poll timeout while traffic is flowing: bounds how long a
    /// matured in-simulation reply can wait for the virtual clock to
    /// advance past it.
    pub active_tick: Duration,
    /// Poll timeout once the gateway has been idle for a while: the
    /// thread blocks in `epoll_wait` this long between empty-batch
    /// clock advances, burning ~0 CPU. Arrivals still wake it
    /// instantly; only *timer-driven* work (idle session expiry) waits
    /// for the tick.
    pub idle_tick: Duration,
    /// How long without traffic before stretching to `idle_tick`.
    pub idle_after: Duration,
    /// Forces the portable polling front even where epoll works
    /// (exercises the fallback path).
    pub force_polling: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            udp_ports: Vec::new(),
            threads: 1,
            active_tick: Duration::from_millis(1),
            idle_tick: Duration::from_millis(200),
            idle_after: Duration::from_millis(50),
            force_polling: false,
        }
    }
}

/// Aggregate gateway counters (all threads summed).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GatewayStats {
    /// Datagrams received on real sockets and submitted to shards.
    pub datagrams_in: u64,
    /// Egress datagrams sent out of real sockets.
    pub datagrams_out: u64,
    /// Batches submitted to shard queues (including empty clock
    /// advances).
    pub submits: u64,
    /// Egress sends that failed (recorded, batch finished anyway).
    pub send_errors: u64,
}

#[derive(Default)]
struct Counters {
    datagrams_in: AtomicU64,
    datagrams_out: AtomicU64,
    submits: AtomicU64,
    send_errors: AtomicU64,
}

/// The socket front of one gateway thread: the readiness reactor, or a
/// portable polling fallback with the same surface.
enum Front {
    Readiness(GatewayReactor),
    Polling { slots: Vec<(u64, LoopbackUdp)>, by_tag: HashMap<u64, usize> },
}

impl Front {
    fn add_socket(&mut self, tag: u64) -> Result<u16, NetError> {
        match self {
            Front::Readiness(reactor) => reactor.add_socket(tag),
            Front::Polling { slots, by_tag } => {
                let socket = LoopbackUdp::bind_nonblocking()?;
                let port = socket.port()?;
                by_tag.insert(tag, slots.len());
                slots.push((tag, socket));
                Ok(port)
            }
        }
    }

    /// Waits up to `timeout` for traffic, then drains it into `sink`.
    /// The polling front sleeps in small bounded quanta and drains
    /// every socket; the readiness front blocks in `epoll_wait` and
    /// drains only ready ones.
    fn poll(
        &mut self,
        timeout: Duration,
        pool: &mut BufferPool,
        mut sink: impl FnMut(u64, &[u8], u16),
    ) -> Result<usize, NetError> {
        match self {
            Front::Readiness(reactor) => reactor.poll(Some(timeout), pool, sink),
            Front::Polling { slots, .. } => {
                const QUANTUM: Duration = Duration::from_millis(2);
                let deadline = Instant::now() + timeout;
                let mut buf = pool.acquire();
                let mut drained = 0usize;
                loop {
                    for (tag, socket) in slots.iter() {
                        while let Some((len, from_port)) = socket.try_recv_into(&mut buf)? {
                            sink(*tag, &buf[..len], from_port);
                            drained += 1;
                        }
                    }
                    let now = Instant::now();
                    if drained > 0 || now >= deadline {
                        break;
                    }
                    std::thread::sleep((deadline - now).min(QUANTUM));
                }
                pool.release(buf);
                Ok(drained)
            }
        }
    }

    fn send_from(&mut self, tag: u64, payload: &[u8], to_port: u16) -> Result<(), NetError> {
        match self {
            Front::Readiness(reactor) => reactor.send_from(tag, payload, to_port),
            Front::Polling { slots, by_tag } => {
                let &idx = by_tag
                    .get(&tag)
                    .ok_or_else(|| NetError::Io(format!("gateway tag {tag} not registered")))?;
                slots[idx].1.send_to(payload, to_port)
            }
        }
    }

    fn rebuild(&mut self) -> Result<(), NetError> {
        match self {
            Front::Readiness(reactor) => reactor.rebuild(),
            // Nothing to rebuild: the polling front has no epoll fd.
            Front::Polling { .. } => Ok(()),
        }
    }
}

/// Shared state each gateway thread works against.
struct Control {
    stop: AtomicBool,
    /// Bumped by [`ShardedGateway::request_rebuild`]; threads rebuild
    /// their front when their seen generation lags.
    rebuild_generation: AtomicU64,
    counters: Counters,
    errors: Mutex<Vec<String>>,
    /// Per-shard driver-injected inputs (TCP legs of chain cases),
    /// drained by the owning gateway thread each iteration.
    injected: Vec<Mutex<Vec<ShardInput>>>,
    /// Non-datagram shard outputs (TCP data/close), for
    /// [`ShardedGateway::drain_tcp`].
    tcp_out: Mutex<Vec<(usize, ShardOutput)>>,
}

struct GatewayThread {
    front: Front,
    /// Shards this thread owns, paired with their handles.
    owned: Vec<(usize, ShardHandle)>,
    config: GatewayConfig,
}

/// The compound tag of one real socket: shard index × simulated port.
fn tag_of(shard: usize, sim_port: u16) -> u64 {
    ((shard as u64) << 16) | u64::from(sim_port)
}

/// A [`ShardedBridge`] served over real loopback sockets by N gateway
/// threads (see the module docs for the topology and affinity
/// contract). TCP chain legs are carried via [`ShardedGateway::inject`]
/// / [`ShardedGateway::drain_tcp`]; only UDP crosses real sockets.
pub struct ShardedGateway {
    bridge: ShardedBridge,
    handles: Vec<ShardHandle>,
    control: Arc<Control>,
    /// Waker of each gateway thread's reactor (empty in polling mode).
    wakers: Vec<Arc<ReadinessWaker>>,
    /// (shard, sim_port) → real loopback port.
    real_ports: HashMap<(usize, u16), u16>,
    threads: Vec<JoinHandle<()>>,
    mode: &'static str,
}

impl std::fmt::Debug for ShardedGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGateway")
            .field("shards", &self.handles.len())
            .field("threads", &self.threads.len())
            .field("mode", &self.mode)
            .finish()
    }
}

impl ShardedGateway {
    /// Takes ownership of `bridge` and serves it over real sockets:
    /// binds one socket per shard × port of `config.udp_ports`, spawns
    /// `config.threads` gateway threads (readiness-driven where epoll
    /// is available, polling otherwise), and installs each shard's
    /// egress notifier so workers wake the owning thread the moment
    /// replies land.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`](crate::CoreError::Net) when a socket
    /// cannot be bound or registered.
    pub fn launch(bridge: ShardedBridge, config: GatewayConfig) -> crate::Result<Self> {
        let handles = bridge.handles();
        let shard_count = handles.len();
        let thread_count = config.threads.clamp(1, shard_count);
        let readiness = !config.force_polling && readiness_supported();
        let mode = if readiness { "readiness" } else { "polling" };

        // Build every thread's front up-front so the port map is
        // complete before any traffic can arrive.
        let mut fronts = Vec::with_capacity(thread_count);
        let mut wakers = Vec::new();
        for _ in 0..thread_count {
            let front = if readiness {
                let reactor = GatewayReactor::new().map_err(crate::CoreError::Net)?;
                wakers.push(reactor.waker());
                Front::Readiness(reactor)
            } else {
                Front::Polling { slots: Vec::new(), by_tag: HashMap::new() }
            };
            fronts.push(front);
        }
        let mut real_ports = HashMap::new();
        for shard in 0..shard_count {
            let front = &mut fronts[shard % thread_count];
            for &port in &config.udp_ports {
                let real = front.add_socket(tag_of(shard, port)).map_err(crate::CoreError::Net)?;
                real_ports.insert((shard, port), real);
            }
        }

        let control = Arc::new(Control {
            stop: AtomicBool::new(false),
            rebuild_generation: AtomicU64::new(0),
            counters: Counters::default(),
            errors: Mutex::new(Vec::new()),
            injected: (0..shard_count).map(|_| Mutex::new(Vec::new())).collect(),
            tcp_out: Mutex::new(Vec::new()),
        });

        // Egress notifiers: a shard worker that publishes egress wakes
        // the reactor of the thread owning that shard.
        if readiness {
            for (shard, handle) in handles.iter().enumerate() {
                let waker = Arc::clone(&wakers[shard % thread_count]);
                handle.set_egress_notifier(move || waker.wake());
            }
        }

        let epoch = Instant::now();
        let mut threads = Vec::with_capacity(thread_count);
        for (index, front) in fronts.into_iter().enumerate() {
            let owned: Vec<(usize, ShardHandle)> = handles
                .iter()
                .enumerate()
                .filter(|(shard, _)| shard % thread_count == index)
                .map(|(shard, handle)| (shard, handle.clone()))
                .collect();
            let thread = GatewayThread { front, owned, config: config.clone() };
            let control = Arc::clone(&control);
            let host = Arc::clone(bridge.host());
            threads.push(std::thread::spawn(move || {
                gateway_thread(thread, &control, &host, epoch);
            }));
        }

        Ok(ShardedGateway { bridge, handles, control, wakers, real_ports, threads, mode })
    }

    /// `"readiness"` (epoll-driven) or `"polling"` (portable fallback).
    pub fn mode(&self) -> &'static str {
        self.mode
    }

    /// Number of shards served.
    pub fn shard_count(&self) -> usize {
        self.handles.len()
    }

    /// The shard FxHash pins `client_host` to — clients that want
    /// hash-affinity resolve their socket with this plus
    /// [`ShardedGateway::ingress_real_port`].
    pub fn shard_of(&self, client_host: &str) -> usize {
        (fxhash::hash64(client_host) % self.handles.len() as u64) as usize
    }

    /// The real loopback port exposing `sim_port` of `shard`.
    pub fn ingress_real_port(&self, shard: usize, sim_port: u16) -> Option<u16> {
        self.real_ports.get(&(shard, sim_port)).copied()
    }

    /// Queues a non-datagram input (TCP chain legs) onto `shard`,
    /// picked up by the owning gateway thread within one active tick.
    pub fn inject(&self, shard: usize, input: ShardInput) {
        let mut queue =
            self.control.injected[shard].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        queue.push(input);
        drop(queue);
        if let Some(waker) = self.wakers.get(shard % self.threads.len().max(1)) {
            waker.wake();
        }
    }

    /// Drains TCP shard outputs (stream data, closes, connect
    /// failures) collected by the gateway threads, as `(shard, output)`
    /// pairs.
    pub fn drain_tcp(&self, out: &mut Vec<(usize, ShardOutput)>) {
        let mut queue =
            self.control.tcp_out.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        out.append(&mut queue);
    }

    /// Asks every gateway thread to tear down and rebuild its epoll
    /// registration set (fd churn) at its next iteration. The sockets —
    /// and therefore every [`ShardedGateway::ingress_real_port`] — are
    /// untouched.
    pub fn request_rebuild(&self) {
        self.control.rebuild_generation.fetch_add(1, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> GatewayStats {
        let c = &self.control.counters;
        GatewayStats {
            datagrams_in: c.datagrams_in.load(Ordering::Relaxed),
            datagrams_out: c.datagrams_out.load(Ordering::Relaxed),
            submits: c.submits.load(Ordering::Relaxed),
            send_errors: c.send_errors.load(Ordering::Relaxed),
        }
    }

    /// Errors gateway threads recorded (egress send failures and the
    /// like — each finished its batch and kept serving).
    pub fn errors(&self) -> Vec<String> {
        self.control.errors.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Sends one control command per shard down the ordinary injected
    /// path: each command rides the owning gateway thread's next batch,
    /// so a live swap is serialized against socket traffic exactly like
    /// any other ingress. Advertised ports ([`Self::ingress_real_port`])
    /// are untouched — clients keep their sockets across the swap.
    ///
    /// # Panics
    ///
    /// Panics when `commands.len() != self.shard_count()`.
    pub fn dispatch_control(&self, commands: Vec<BridgeCommand>) {
        assert_eq!(
            commands.len(),
            self.handles.len(),
            "dispatch_control needs one command per shard"
        );
        for (shard, command) in commands.into_iter().enumerate() {
            self.inject(shard, ShardInput::Control(ControlSlot::new(command)));
        }
    }

    /// Serves `hub`'s pages from a loopback HTTP endpoint
    /// (`GET /metrics`, `GET /trace`), wiring the gateway's own
    /// counters, the fleet-wide unrouted counter and every shard's
    /// trace stream into the hub first. Drop the returned server to
    /// stop serving; the sinks stay installed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`](crate::CoreError::Net) when the
    /// endpoint socket cannot be bound.
    pub fn serve_metrics(&self, hub: &MetricsHub) -> crate::Result<MetricsServer> {
        let control = Arc::clone(&self.control);
        hub.set_gateway(move || {
            let c = &control.counters;
            GatewayStats {
                datagrams_in: c.datagrams_in.load(Ordering::Relaxed),
                datagrams_out: c.datagrams_out.load(Ordering::Relaxed),
                submits: c.submits.load(Ordering::Relaxed),
                send_errors: c.send_errors.load(Ordering::Relaxed),
            }
        });
        hub.set_unrouted(self.bridge.unrouted_handle());
        for (shard, handle) in self.handles.iter().enumerate() {
            let hub = hub.clone();
            let source: Arc<str> = Arc::from(format!("shard{shard}"));
            handle.set_trace_sink(move |lost, fresh| hub.record_stream(&source, lost, fresh));
        }
        MetricsServer::serve(hub.render_fn()).map_err(crate::CoreError::Net)
    }

    /// Blocks until every shard has processed every batch submitted so
    /// far (the [`ShardedBridge::flush`] barrier).
    pub fn flush(&self) {
        self.bridge.flush();
    }
}

impl Drop for ShardedGateway {
    fn drop(&mut self) {
        self.control.stop.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        for handle in &self.handles {
            handle.clear_egress_notifier();
        }
        // `bridge` drops last, shutting down the shard workers.
    }
}

/// The loop of one gateway thread (see the module diagram): wait for
/// readiness, drain ready sockets into per-shard batches, submit with
/// the virtual clock slaved to real elapsed time, flush outbox egress
/// back through the owning sockets.
fn gateway_thread(mut thread: GatewayThread, control: &Control, host: &Arc<str>, epoch: Instant) {
    let loopback: Arc<str> = Arc::from("127.0.0.1");
    let mut pool = BufferPool::new();
    let mut pending: HashMap<usize, Vec<ShardInput>> =
        thread.owned.iter().map(|(shard, _)| (*shard, Vec::new())).collect();
    let mut outbox: Vec<ShardOutput> = Vec::new();
    let mut seen_generation = 0u64;
    let mut last_traffic = Instant::now();

    while !control.stop.load(Ordering::SeqCst) {
        let generation = control.rebuild_generation.load(Ordering::SeqCst);
        if generation != seen_generation {
            seen_generation = generation;
            if let Err(err) = thread.front.rebuild() {
                record_error(control, format!("front rebuild failed: {err}"));
            }
        }

        let idle = last_traffic.elapsed() >= thread.config.idle_after;
        let timeout = if idle { thread.config.idle_tick } else { thread.config.active_tick };
        let drained = {
            let counters = &control.counters;
            thread.front.poll(timeout, &mut pool, |tag, payload, from_port| {
                let shard = (tag >> 16) as usize;
                let sim_port = (tag & 0xFFFF) as u16;
                if let Some(batch) = pending.get_mut(&shard) {
                    batch.push(ShardInput::Datagram(Datagram {
                        from: SimAddr { host: loopback.clone(), port: from_port },
                        to: SimAddr { host: host.clone(), port: sim_port },
                        payload: Bytes::copy_from_slice(payload),
                    }));
                    counters.datagrams_in.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        match drained {
            Ok(0) => {}
            Ok(_) => last_traffic = Instant::now(),
            Err(err) => record_error(control, format!("ingress poll failed: {err}")),
        }

        // Driver-injected inputs (TCP chain legs) ride the same batch.
        let mut injected_any = false;
        for (shard, _) in &thread.owned {
            let mut queue =
                control.injected[*shard].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if !queue.is_empty() {
                injected_any = true;
                pending.get_mut(shard).expect("owned shard").append(&mut queue);
            }
        }
        if injected_any {
            last_traffic = Instant::now();
        }

        // Submit every owned shard — an empty batch still advances the
        // virtual clock, so timers (idle expiry, calibrated service
        // delays) keep firing while sockets are quiet.
        let now = SimTime::from_micros(epoch.elapsed().as_micros() as u64);
        for (shard, handle) in &thread.owned {
            handle.submit(now, std::mem::take(pending.get_mut(shard).expect("owned shard")));
            control.counters.submits.fetch_add(1, Ordering::Relaxed);
        }

        // Flush egress the workers have published. Replies matured in
        // the submit above usually land here on the *next* iteration —
        // within one active tick, or immediately when the shard
        // worker's egress notifier wakes the reactor.
        for (shard, handle) in &thread.owned {
            outbox.clear();
            handle.drain_outbox(&mut outbox);
            let mut sent_any = false;
            let mut first_error: Option<String> = None;
            for output in outbox.drain(..) {
                match output {
                    ShardOutput::Datagram(datagram) => {
                        let tag = tag_of(*shard, datagram.from.port);
                        match thread.front.send_from(tag, &datagram.payload, datagram.to.port) {
                            Ok(()) => {
                                sent_any = true;
                                control.counters.datagrams_out.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(err) => {
                                // Finish the batch; report the first
                                // failure (the UdpBridge::pump rule).
                                control.counters.send_errors.fetch_add(1, Ordering::Relaxed);
                                first_error.get_or_insert_with(|| {
                                    format!("egress send failed (shard {shard}): {err}")
                                });
                            }
                        }
                    }
                    other => {
                        let mut queue = control
                            .tcp_out
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        queue.push((*shard, other));
                    }
                }
            }
            if let Some(error) = first_error {
                record_error(control, error);
            }
            if sent_any {
                last_traffic = Instant::now();
            }
        }
    }
}

fn record_error(control: &Control, error: String) {
    let mut errors = control.errors.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Bounded so a persistent failure cannot grow memory on a
    // long-lived gateway.
    if errors.len() < 1024 {
        errors.push(error);
    }
}
