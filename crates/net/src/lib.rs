//! # starlink-net
//!
//! The network substrate of the Starlink reproduction: a **deterministic
//! discrete-event simulator** with virtual time, UDP unicast/multicast,
//! TCP connection semantics and timers — plus a thin loopback engine over
//! real sockets.
//!
//! The paper's evaluation (§VI) ran client, service and bridge on a
//! single machine "to avoid measuring additional network latency, which
//! may not be constant"; the simulator reproduces exactly that controlled
//! setting. Every run is seeded ([`SimNet::new`]), so the 100-run
//! min/median/max sweeps of Fig. 12 regenerate identically.
//!
//! * [`SimTime`]/[`SimDuration`] — integer-microsecond virtual time;
//! * [`SimAddr`] — host:port endpoints, with multicast-range detection;
//! * [`LatencyModel`] — seeded per-delivery latency;
//! * [`Actor`]/[`Context`] — host behaviour: bind ports, join groups,
//!   send datagrams, open TCP connections, set timers;
//! * [`SimNet`] — the event loop;
//! * [`TraceEvent`]/[`TraceRing`] — the typed, fixed-capacity event
//!   trace every simulation records;
//! * [`LoopbackUdp`] — real-socket smoke-test engine.
//!
//! ## Example
//!
//! ```
//! use starlink_net::*;
//!
//! struct Pinger;
//! impl Actor for Pinger {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.bind_udp(427).unwrap();
//!         ctx.join_group(SimAddr::new("239.255.255.253", 427));
//!     }
//!     fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
//!         ctx.trace(format!("got {} bytes", datagram.payload.len()));
//!     }
//! }
//!
//! let mut sim = SimNet::new(1);
//! sim.add_actor("10.0.0.1", Pinger);
//! sim.run_until_idle();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod error;
mod export;
mod latency;
mod reactor;
mod realnet;
mod sim;
mod time;
mod trace;

pub use addr::SimAddr;
pub use bytes::Bytes;
pub use epoll::Waker as ReadinessWaker;
pub use error::{NetError, Result};
pub use export::{MetricsServer, RenderFn};
pub use latency::LatencyModel;
pub use reactor::{readiness_supported, GatewayReactor, ReactorStats};
pub use realnet::{
    wait_deadline, BufferPool, GatewayLoop, LoopbackUdp, PumpStats, UdpBridge, MAX_DATAGRAM,
};
pub use sim::{
    Actor, ConnId, Context, Datagram, DelayedActor, ExternalTcpEvent, Impairments, PassSchedule,
    SimNet, TcpEvent, TimerId,
};
pub use time::{SimDuration, SimTime};
pub use trace::{
    Leg, LinkEnd, LinkFate, SessionKey, TraceEntry, TraceEvent, TraceIter, TraceKind, TraceRing,
    TRACE_CAP,
};
