//! A thin real-socket engine over `std::net` loopback.
//!
//! The simulator is the primary substrate for the evaluation (§VI runs
//! everything on one machine anyway), but the stack is also exercised
//! over real UDP sockets here to demonstrate that nothing in it depends
//! on simulation artefacts. Multicast is not used — sandboxed
//! environments rarely route it — so peers address each other directly
//! on 127.0.0.1.
//!
//! Two layers live here:
//!
//! * [`LoopbackUdp`] — one bound socket with a configurable receive
//!   timeout and a non-blocking poll mode;
//! * [`UdpBridge`] — a gateway loop that hosts any [`Actor`] (typically
//!   a deployed bridge engine) behind real loopback sockets: datagrams
//!   arriving on a real socket are injected into a private [`SimNet`],
//!   the actor's replies leave through the simulator's egress queue, and
//!   the virtual clock is advanced in step with real time so
//!   timer-driven behaviour (session idle expiry) works live.

use crate::addr::SimAddr;
use crate::error::{NetError, Result};
use crate::sim::{Actor, Datagram, SimNet};
use crate::time::SimTime;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// The largest UDP payload a loopback socket can carry (64 KiB minus
/// headers fits; a full 64 KiB scratch buffer always suffices).
pub const MAX_DATAGRAM: usize = 65_536;

/// A pool of reusable receive buffers for [`LoopbackUdp::recv_into`]/
/// [`LoopbackUdp::try_recv_into`] callers: acquire before a receive
/// loop, release once payloads are copied out, and steady state
/// performs **zero** buffer allocations (the old `recv` path allocated
/// — and zeroed — a fresh 64 KiB `Vec` per datagram). `UdpBridge`
/// drains all its sockets through one pooled buffer per pump pass;
/// callers that keep several receives in flight pool one per receive.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
}

impl BufferPool {
    /// Creates an empty pool (buffers are allocated on first use and
    /// retained thereafter).
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Takes a [`MAX_DATAGRAM`]-sized buffer from the pool, allocating
    /// only when the pool is empty.
    ///
    /// **Contract: the buffer is dirty.** Its length is always
    /// [`MAX_DATAGRAM`], but its contents are whatever the previous
    /// user received into it — re-zeroing 64 KiB per datagram is
    /// exactly the cost the pool exists to avoid. Receive paths must
    /// bound every read by the length the socket reported (e.g.
    /// [`LoopbackUdp::try_recv_into`]'s `len`), never by scanning for
    /// sentinel bytes.
    pub fn acquire(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_else(|| vec![0u8; MAX_DATAGRAM])
    }

    /// Returns a buffer to the pool for reuse.
    ///
    /// Restores the full [`MAX_DATAGRAM`] length; `Vec::resize` zeroes
    /// only the tail a caller truncated away, so bytes below the old
    /// length keep their stale contents **by design** (see
    /// [`BufferPool::acquire`] for the dirty-buffer contract this
    /// implies).
    pub fn release(&mut self, mut buf: Vec<u8>) {
        buf.resize(MAX_DATAGRAM, 0);
        self.free.push(buf);
    }

    /// Buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// A bound UDP endpoint on 127.0.0.1 with an ephemeral port.
#[derive(Debug)]
pub struct LoopbackUdp {
    socket: UdpSocket,
}

impl LoopbackUdp {
    /// Binds an ephemeral UDP port on loopback with the default 5 s
    /// receive timeout.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when binding fails (e.g. no network
    /// namespace available).
    pub fn bind() -> Result<Self> {
        Self::bind_with_timeout(Duration::from_secs(5))
    }

    /// Binds an ephemeral UDP port on loopback with an explicit receive
    /// timeout, so a dropped datagram stalls a caller for exactly as
    /// long as it chooses — not a hardcoded 5 s.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when binding fails.
    pub fn bind_with_timeout(timeout: Duration) -> Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| NetError::Io(e.to_string()))?;
        socket.set_read_timeout(Some(timeout)).map_err(|e| NetError::Io(e.to_string()))?;
        Ok(LoopbackUdp { socket })
    }

    /// Binds an ephemeral UDP port on loopback in non-blocking mode
    /// (poll with [`LoopbackUdp::try_recv`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when binding fails.
    pub fn bind_nonblocking() -> Result<Self> {
        let this = Self::bind()?;
        this.set_nonblocking(true)?;
        Ok(this)
    }

    /// The bound port.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the local address cannot be read.
    pub fn port(&self) -> Result<u16> {
        Ok(self.socket.local_addr().map_err(|e| NetError::Io(e.to_string()))?.port())
    }

    /// Sends a datagram to another loopback port.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on socket failures.
    pub fn send_to(&self, payload: &[u8], port: u16) -> Result<()> {
        self.socket
            .send_to(payload, ("127.0.0.1", port))
            .map_err(|e| NetError::Io(e.to_string()))?;
        Ok(())
    }

    /// Receives one datagram (blocking up to the configured timeout),
    /// returning the payload and the sender's port.
    ///
    /// Allocates a fresh payload `Vec` per call; hot loops should prefer
    /// [`LoopbackUdp::recv_into`] with a pooled buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on timeout or socket failure.
    pub fn recv(&self) -> Result<(Vec<u8>, u16)> {
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let (len, from) = self.recv_into(&mut buf)?;
        buf.truncate(len);
        Ok((buf, from))
    }

    /// Receives one datagram into a caller-provided buffer (blocking up
    /// to the configured timeout), returning the payload length and the
    /// sender's port — the zero-allocation receive path.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on timeout or socket failure.
    pub fn recv_into(&self, buf: &mut [u8]) -> Result<(usize, u16)> {
        let (len, from) = self.socket.recv_from(buf).map_err(|e| NetError::Io(e.to_string()))?;
        Ok((len, from.port()))
    }

    /// Polls for one datagram without blocking: `Ok(None)` when nothing
    /// is queued. Requires non-blocking mode (or is bounded by the read
    /// timeout otherwise).
    ///
    /// Allocates a fresh payload `Vec` per datagram; hot loops should
    /// prefer [`LoopbackUdp::try_recv_into`] with a pooled buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on socket failures other than
    /// would-block/timeout.
    pub fn try_recv(&self) -> Result<Option<(Vec<u8>, u16)>> {
        let mut buf = vec![0u8; MAX_DATAGRAM];
        Ok(self.try_recv_into(&mut buf)?.map(|(len, from)| {
            buf.truncate(len);
            (buf, from)
        }))
    }

    /// Polls for one datagram into a caller-provided buffer without
    /// blocking: `Ok(None)` when nothing is queued — the zero-allocation
    /// poll path used by the gateway's batched pump.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on socket failures other than
    /// would-block/timeout.
    pub fn try_recv_into(&self, buf: &mut [u8]) -> Result<Option<(usize, u16)>> {
        match self.socket.recv_from(buf) {
            Ok((len, from)) => Ok(Some((len, from.port()))),
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(err) => Err(NetError::Io(err.to_string())),
        }
    }

    /// Sets the receive timeout.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the option cannot be set.
    pub fn set_timeout(&self, timeout: Duration) -> Result<()> {
        self.socket.set_read_timeout(Some(timeout)).map_err(|e| NetError::Io(e.to_string()))
    }

    /// Switches the socket between blocking and non-blocking mode.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the option cannot be set.
    pub fn set_nonblocking(&self, nonblocking: bool) -> Result<()> {
        self.socket.set_nonblocking(nonblocking).map_err(|e| NetError::Io(e.to_string()))
    }

    /// The raw fd, for readiness registration.
    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.socket.as_raw_fd()
    }

    /// Non-unix targets have no raw fd; readiness construction already
    /// failed before anything could ask for one.
    #[cfg(not(unix))]
    pub(crate) fn raw_fd(&self) -> i32 {
        -1
    }
}

/// Polls `step` until it yields a value or `budget` elapses, backing
/// off between empty polls (a scheduler yield, then sleeps doubling up
/// to 1 ms) — the shared replacement for fixed `sleep(1ms)` client
/// polling loops, so waits finish as soon as the condition holds
/// instead of being paced by a hardcoded quantum.
///
/// Returns `Ok(None)` when the budget elapses without a value.
///
/// # Errors
///
/// Propagates the first error `step` returns.
pub fn wait_deadline<T, E>(
    budget: Duration,
    mut step: impl FnMut() -> std::result::Result<Option<T>, E>,
) -> std::result::Result<Option<T>, E> {
    const MAX_BACKOFF: Duration = Duration::from_millis(1);
    let deadline = Instant::now() + budget;
    let mut backoff: Option<Duration> = None;
    loop {
        if let Some(value) = step()? {
            return Ok(Some(value));
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        match backoff {
            None => {
                std::thread::yield_now();
                backoff = Some(Duration::from_micros(100));
            }
            Some(pause) => {
                std::thread::sleep(pause);
                backoff = Some((pause * 2).min(MAX_BACKOFF));
            }
        }
    }
}

/// Hosts an [`Actor`] behind real loopback UDP sockets: a live bridge
/// serving real multi-client traffic, not just codec smoke tests.
///
/// Each simulated UDP port the actor binds is exposed as one real
/// ephemeral loopback socket ([`UdpBridge::real_port`] maps them).
/// [`UdpBridge::pump`] polls the sockets, injects arrivals into the
/// private simulation as datagrams from `127.0.0.1:<sender port>`,
/// advances the virtual clock to the real elapsed time (so the actor's
/// timers — e.g. session idle expiry — fire on the real clock), and
/// forwards the simulation's egress datagrams back out of the matching
/// socket. TCP colours are not bridged.
#[derive(Debug)]
pub struct UdpBridge {
    sim: SimNet,
    host: std::sync::Arc<str>,
    sockets: Vec<(u16, LoopbackUdp)>,
    epoch: Instant,
    /// Pooled receive buffers: a pump pass borrows one per datagram and
    /// returns it once the payload is copied into the simulation.
    pool: BufferPool,
    /// Arrival batch reused across pump passes (capacity persists).
    arrivals: Vec<Datagram>,
    /// Egress batch reused across pump passes.
    egress: Vec<Datagram>,
    /// Readiness state when [`UdpBridge::enable_readiness`] succeeded:
    /// idle waits block in `epoll_wait` and pump passes drain only
    /// ready sockets.
    ready: Option<ReadySet>,
    /// Portable idle backoff (reset whenever a pass moves datagrams).
    backoff: Option<Duration>,
    stats: PumpStats,
}

/// Counters describing how a gateway loop has been spending its time —
/// the semantic evidence behind the latency claims: a readiness-driven
/// gateway shows `backoff_sleeps == 0` (it blocks in `epoll_wait`
/// instead), a portable one accumulates them while idle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PumpStats {
    /// Pump passes executed.
    pub passes: u64,
    /// Portable idle sleeps taken (each costs up to a scheduler
    /// quantum of wakeup latency when traffic resumes).
    pub backoff_sleeps: u64,
    /// Blocking readiness waits taken (woken instantly by arrivals).
    pub readiness_waits: u64,
}

/// Level-triggered readiness over a bridge's socket set.
#[derive(Debug)]
struct ReadySet {
    readiness: epoll::Readiness,
    events: epoll::Events,
    /// Socket indices reported ready by the last wait/refresh.
    ready_idx: Vec<usize>,
}

impl ReadySet {
    fn over(sockets: &[(u16, LoopbackUdp)]) -> Result<Self> {
        let readiness = epoll::Readiness::new().map_err(|e| NetError::Io(e.to_string()))?;
        for (idx, (_, socket)) in sockets.iter().enumerate() {
            readiness
                .register(
                    socket.raw_fd(),
                    idx as u64,
                    epoll::Interest::READABLE,
                    epoll::Trigger::Level,
                )
                .map_err(|e| NetError::Io(e.to_string()))?;
        }
        Ok(ReadySet { readiness, events: epoll::Events::with_capacity(64), ready_idx: Vec::new() })
    }

    /// One readiness wait; fills `ready_idx` with the sockets to drain.
    fn wait(&mut self, timeout: Duration) -> Result<()> {
        self.ready_idx.clear();
        self.readiness
            .wait(&mut self.events, Some(timeout))
            .map_err(|e| NetError::Io(e.to_string()))?;
        self.ready_idx.extend(self.events.iter().map(|event| event.token as usize));
        Ok(())
    }
}

/// The gateway pump loop, abstracted over how idle time is spent: the
/// readiness-driven path blocks in `epoll_wait` (woken instantly by
/// arrivals, ~0 CPU while idle), the portable fallback backs off with
/// doubling sleeps. [`UdpBridge`] implements both behind this trait —
/// [`UdpBridge::enable_readiness`] switches paths at runtime, so
/// consumers keep working wherever epoll is unavailable.
pub trait GatewayLoop {
    /// One iteration: move every deliverable datagram in both
    /// directions, returning how many moved.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on socket failures.
    fn pump(&mut self) -> Result<usize>;

    /// Waits (at most `timeout`) for traffic to plausibly be ready,
    /// after a pass that moved nothing.
    fn idle_wait(&mut self, timeout: Duration);

    /// Pumps for up to `budget` real time until `done()` reports true,
    /// returning whether it was reached within the budget. Active
    /// passes loop back immediately; idle passes spend their time in
    /// [`GatewayLoop::idle_wait`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on socket failures.
    fn pump_until(&mut self, budget: Duration, mut done: impl FnMut() -> bool) -> Result<bool>
    where
        Self: Sized,
    {
        // Bound each idle wait so `done()` conditions flipped by other
        // threads (not by traffic through this gateway) are still
        // noticed promptly.
        const MAX_IDLE_WAIT: Duration = Duration::from_millis(5);
        let deadline = Instant::now() + budget;
        loop {
            let moved = self.pump()?;
            if done() {
                return Ok(true);
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if moved == 0 {
                self.idle_wait((deadline - now).min(MAX_IDLE_WAIT));
            }
        }
        self.pump()?;
        Ok(done())
    }
}

impl UdpBridge {
    /// Deploys `actor` on `host` inside a private simulation and binds
    /// one real non-blocking loopback socket per port in `udp_ports`
    /// (the simulated ports the actor listens on).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when a real socket cannot be bound.
    pub fn deploy(
        seed: u64,
        host: impl Into<String>,
        actor: impl Actor + 'static,
        udp_ports: &[u16],
    ) -> Result<Self> {
        let host: std::sync::Arc<str> = std::sync::Arc::from(host.into());
        let mut sim = SimNet::new(seed);
        sim.register_external_host("127.0.0.1");
        sim.add_actor(host.as_ref(), actor);
        // Process the actor's on_start (bindings) without firing any
        // timers it may set for the future.
        sim.run_until(SimTime::ZERO);
        let mut sockets = Vec::with_capacity(udp_ports.len());
        for &port in udp_ports {
            sockets.push((port, LoopbackUdp::bind_nonblocking()?));
        }
        Ok(UdpBridge {
            sim,
            host,
            sockets,
            epoch: Instant::now(),
            pool: BufferPool::new(),
            arrivals: Vec::new(),
            egress: Vec::new(),
            ready: None,
            backoff: None,
            stats: PumpStats::default(),
        })
    }

    /// Switches the gateway to readiness-driven mode: idle waits block
    /// in `epoll_wait` (woken instantly by arrivals) and pump passes
    /// drain only the sockets the kernel reports ready, instead of
    /// polling all of them with backoff sleeps.
    ///
    /// Returns `Ok(false)` — loudly staying on the portable polling
    /// path — where epoll is unavailable (non-Linux targets).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when epoll is supported but
    /// registration fails.
    pub fn enable_readiness(&mut self) -> Result<bool> {
        if !epoll::supported() {
            return Ok(false);
        }
        self.ready = Some(ReadySet::over(&self.sockets)?);
        Ok(true)
    }

    /// Whether the readiness-driven path is active.
    pub fn readiness_active(&self) -> bool {
        self.ready.is_some()
    }

    /// How this gateway has been spending its time (see [`PumpStats`]).
    pub fn pump_stats(&self) -> PumpStats {
        self.stats
    }

    /// The real loopback port exposing the actor's simulated `sim_port`.
    pub fn real_port(&self, sim_port: u16) -> Option<u16> {
        self.sockets
            .iter()
            .find(|(port, _)| *port == sim_port)
            .and_then(|(_, socket)| socket.port().ok())
    }

    /// Registers a real endpoint as a member of a simulated multicast
    /// group: the actor's group sends fan out to `127.0.0.1:real_port`.
    pub fn join_group_external(&mut self, group: SimAddr, real_port: u16) {
        self.sim.join_group_external(group, SimAddr::new("127.0.0.1", real_port));
    }

    /// Events the gateway simulation's trace ring retains (at most
    /// [`crate::TRACE_CAP`]; debugging aid).
    pub fn trace_len(&self) -> usize {
        self.sim.trace().len()
    }

    /// One gateway iteration: drains every socket into a reusable batch
    /// of pooled buffers (no per-datagram allocation), injects the whole
    /// batch, advances the virtual clock to the real elapsed time, and
    /// flushes the egress batch out of the matching sockets. Returns the
    /// number of datagrams forwarded in either direction.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on socket failures.
    pub fn pump(&mut self) -> Result<usize> {
        self.stats.passes += 1;
        let mut forwarded = 0usize;
        // Ingress phase: drain all sockets into one batch before touching
        // the simulation, so a burst arriving across several ports is
        // dispatched in a single virtual-clock advance. In readiness
        // mode a zero-timeout wait asks the kernel which sockets hold
        // data and only those are drained.
        self.arrivals.clear();
        let mut buf = self.pool.acquire();
        let ready_refreshed = match &mut self.ready {
            Some(ready) => {
                ready.wait(Duration::ZERO)?;
                true
            }
            None => false,
        };
        let mut drain =
            |sim_port: u16, socket: &LoopbackUdp, arrivals: &mut Vec<Datagram>| -> Result<()> {
                while let Some((len, from_port)) = socket.try_recv_into(&mut buf)? {
                    arrivals.push(Datagram {
                        from: SimAddr::new("127.0.0.1", from_port),
                        to: SimAddr { host: self.host.clone(), port: sim_port },
                        payload: bytes::Bytes::copy_from_slice(&buf[..len]),
                    });
                }
                Ok(())
            };
        if ready_refreshed {
            let ready = self.ready.as_ref().expect("refreshed above");
            for &idx in &ready.ready_idx {
                let (sim_port, socket) = &self.sockets[idx];
                drain(*sim_port, socket, &mut self.arrivals)?;
            }
        } else {
            for (sim_port, socket) in &self.sockets {
                drain(*sim_port, socket, &mut self.arrivals)?;
            }
        }
        self.pool.release(buf);
        for datagram in self.arrivals.drain(..) {
            self.sim.inject_datagram(datagram);
            forwarded += 1;
        }
        let elapsed = self.epoch.elapsed();
        self.sim.run_until(SimTime::from_micros(elapsed.as_micros() as u64));
        // Egress phase: forward everything deliverable first, then
        // surface any failure or misconfiguration — erroring mid-loop
        // would drop queued datagrams from correctly exposed ports.
        self.sim.drain_egress_into(&mut self.egress);
        let mut unexposed: Option<Datagram> = None;
        let mut send_error: Option<NetError> = None;
        for datagram in self.egress.drain(..) {
            match self.sockets.iter().find(|(port, _)| *port == datagram.from.port) {
                Some((_, socket)) => match socket.send_to(&datagram.payload, datagram.to.port) {
                    Ok(()) => forwarded += 1,
                    Err(err) => send_error = send_error.or(Some(err)),
                },
                None => unexposed = unexposed.or(Some(datagram)),
            }
        }
        if forwarded > 0 {
            self.backoff = None;
        }
        if let Some(err) = send_error {
            // The batch was finished above; only now report the first
            // send failure.
            return Err(err);
        }
        if let Some(datagram) = unexposed {
            // The actor emitted from a port `deploy` was not told about —
            // a misconfiguration that would otherwise look like silent
            // packet loss.
            return Err(NetError::Io(format!(
                "egress datagram from unexposed port {} (to {}): \
                 add it to UdpBridge::deploy's udp_ports",
                datagram.from.port, datagram.to
            )));
        }
        Ok(forwarded)
    }

    /// Pumps for up to `budget` real time until `done()` reports true,
    /// returning whether it was reached within the budget.
    ///
    /// Active passes (datagrams moved) loop back immediately; idle
    /// passes wait via [`GatewayLoop::idle_wait`] — blocked in
    /// `epoll_wait` when [`UdpBridge::enable_readiness`] succeeded
    /// (woken instantly by arrivals), or backing off with sleeps
    /// doubling up to 2 ms on the portable path — so a waiting gateway
    /// neither burns a core nor adds latency when traffic resumes
    /// mid-burst.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on socket failures.
    pub fn pump_until(&mut self, budget: Duration, done: impl FnMut() -> bool) -> Result<bool> {
        GatewayLoop::pump_until(self, budget, done)
    }
}

impl GatewayLoop for UdpBridge {
    fn pump(&mut self) -> Result<usize> {
        UdpBridge::pump(self)
    }

    fn idle_wait(&mut self, timeout: Duration) {
        match &mut self.ready {
            Some(ready) => {
                // Blocked in epoll_wait: zero CPU while idle, woken the
                // instant a datagram lands (no sleep-quantum latency).
                self.stats.readiness_waits += 1;
                let _ = ready.wait(timeout);
            }
            None => {
                const MAX_BACKOFF: Duration = Duration::from_millis(2);
                match self.backoff {
                    None => {
                        std::thread::yield_now();
                        self.backoff = Some(Duration::from_micros(250));
                    }
                    Some(pause) => {
                        let pause = pause.min(timeout);
                        self.stats.backoff_sleeps += 1;
                        std::thread::sleep(pause);
                        self.backoff = Some((pause * 2).min(MAX_BACKOFF));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrip() {
        let Ok(a) = LoopbackUdp::bind() else {
            eprintln!("skipping: loopback UDP unavailable in this environment");
            return;
        };
        let b = LoopbackUdp::bind().unwrap();
        a.send_to(b"ping", b.port().unwrap()).unwrap();
        let (payload, from) = b.recv().unwrap();
        assert_eq!(payload, b"ping");
        assert_eq!(from, a.port().unwrap());
    }

    #[test]
    fn concurrent_peers_echo() {
        let Ok(server) = LoopbackUdp::bind() else {
            eprintln!("skipping: loopback UDP unavailable in this environment");
            return;
        };
        let server_port = server.port().unwrap();
        let handle = std::thread::spawn(move || {
            let (payload, from) = server.recv().unwrap();
            server.send_to(&payload, from).unwrap();
        });
        let client = LoopbackUdp::bind().unwrap();
        client.send_to(b"echo?", server_port).unwrap();
        let (reply, _) = client.recv().unwrap();
        assert_eq!(reply, b"echo?");
        handle.join().unwrap();
    }

    #[test]
    fn nonblocking_try_recv_returns_none_when_idle() {
        let Ok(socket) = LoopbackUdp::bind_nonblocking() else {
            eprintln!("skipping: loopback UDP unavailable in this environment");
            return;
        };
        let start = Instant::now();
        assert!(socket.try_recv().unwrap().is_none());
        assert!(start.elapsed() < Duration::from_secs(1), "poll must not block");
    }

    #[test]
    fn configurable_timeout_bounds_recv() {
        let Ok(socket) = LoopbackUdp::bind_with_timeout(Duration::from_millis(20)) else {
            eprintln!("skipping: loopback UDP unavailable in this environment");
            return;
        };
        let start = Instant::now();
        assert!(socket.recv().is_err(), "nothing was sent");
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(2), "timeout not applied: {elapsed:?}");
    }

    #[test]
    fn udp_bridge_hosts_an_echo_actor_for_real_clients() {
        use crate::sim::{Actor, Context, Datagram};

        /// Echoes every datagram back to its sender.
        struct Echo;
        impl Actor for Echo {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(9).unwrap();
            }
            fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
                ctx.udp_send(9, datagram.from, datagram.payload);
            }
        }

        let Ok(mut bridge) = UdpBridge::deploy(1, "10.0.0.2", Echo, &[9]) else {
            eprintln!("skipping: loopback UDP unavailable in this environment");
            return;
        };
        let echo_port = bridge.real_port(9).unwrap();
        let client = LoopbackUdp::bind_nonblocking().unwrap();
        client.send_to(b"marco", echo_port).unwrap();
        let reply = wait_deadline(Duration::from_secs(5), || {
            bridge.pump()?;
            client.try_recv()
        })
        .unwrap();
        let (payload, _) = reply.expect("echo reply arrived");
        assert_eq!(payload, b"marco");
    }

    #[test]
    fn pooled_buffer_stale_bytes_are_bounded_by_the_receive_length() {
        // The dirty-buffer contract: a short datagram received into a
        // pooled buffer that previously held a long one leaves the long
        // one's tail in place — correct consumers read only `..len`.
        let Ok(receiver) = LoopbackUdp::bind_nonblocking() else {
            eprintln!("skipping: loopback UDP unavailable in this environment");
            return;
        };
        let sender = LoopbackUdp::bind().unwrap();
        let port = receiver.port().unwrap();
        let mut pool = BufferPool::new();

        let mut buf = pool.acquire();
        sender.send_to(&[0xAA; 100], port).unwrap();
        let (len, _) = wait_deadline(Duration::from_secs(5), || receiver.try_recv_into(&mut buf))
            .unwrap()
            .expect("long datagram arrived");
        assert_eq!(len, 100);
        pool.release(buf);

        let mut buf = pool.acquire();
        assert_eq!(buf.len(), MAX_DATAGRAM);
        assert_eq!(&buf[..100], &[0xAA; 100], "acquire hands back the dirty buffer by design");
        sender.send_to(b"hi", port).unwrap();
        let (len, _) = wait_deadline(Duration::from_secs(5), || receiver.try_recv_into(&mut buf))
            .unwrap()
            .expect("short datagram arrived");
        assert_eq!(len, 2);
        assert_eq!(&buf[..len], b"hi", "the reported length bounds the valid bytes");
        assert_eq!(buf[len], 0xAA, "bytes past the length are stale — never read them");
        pool.release(buf);
    }

    #[test]
    fn pump_finishes_the_egress_batch_before_reporting_a_send_error() {
        use crate::sim::{Actor, Context, Datagram};

        /// Replies twice per datagram: once to an unreachable
        /// destination (port 1 is almost never ours to receive on, but
        /// loopback `send_to` succeeds; the *failure* case is forced
        /// below by an oversized payload) and once to the sender.
        struct DoubleEcho;
        impl Actor for DoubleEcho {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.bind_udp(9).unwrap();
            }
            fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
                // First egress datagram: oversized, so the real socket's
                // send fails with EMSGSIZE mid-batch.
                ctx.udp_send(9, datagram.from.clone(), bytes::Bytes::from(vec![0u8; 70_000]));
                // Second egress datagram: the deliverable echo.
                ctx.udp_send(9, datagram.from, datagram.payload);
            }
        }

        let Ok(mut bridge) = UdpBridge::deploy(1, "10.0.0.2", DoubleEcho, &[9]) else {
            eprintln!("skipping: loopback UDP unavailable in this environment");
            return;
        };
        let echo_port = bridge.real_port(9).unwrap();
        let client = LoopbackUdp::bind_nonblocking().unwrap();
        client.send_to(b"marco", echo_port).unwrap();
        // The pass that flushes the two replies must report the
        // oversized send's error — but only after finishing the batch,
        // so the echo still arrives.
        let mut saw_error = false;
        let reply = wait_deadline(Duration::from_secs(5), || {
            if bridge.pump().is_err() {
                saw_error = true;
            }
            client.try_recv()
        })
        .unwrap();
        let (payload, _) = reply.expect("echo reply survived the failed send in the same batch");
        assert_eq!(payload, b"marco");
        assert!(saw_error, "the oversized send's error must still be reported");
    }
}
