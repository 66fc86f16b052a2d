//! Bounded resources on the served path: a bridge that keeps serving
//! lookups keeps a constant amount of state — trace ring, session and
//! error logs, reassembly buffers, connection table — however many it
//! serves, and counts what overflows.

use starlink::core::{EngineConfig, Starlink, ERROR_WINDOW, REASSEMBLY_CAP, SESSION_WINDOW};
use starlink::net::{
    Actor, Context, Datagram, DelayedActor, SimAddr, SimDuration, SimNet, TcpEvent, TraceEvent,
    TRACE_CAP,
};
use starlink::protocols::bridges::{self, BridgeCase};
use starlink::protocols::slp::{self, SlpMessage, SrvRqst, SLP_CLIENT_PORT, SLP_GROUP, SLP_PORT};
use starlink::protocols::{http, Calibration};
use starlink_bench::{add_target_service, expected_discovery_url, BRIDGE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts the allocator calls the current thread makes while its
/// counter is armed; delegates to the system allocator.
struct CountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialized thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocator calls `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|allocs| allocs.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCS.with(Cell::get)
}

const SERVICE_TYPE: &str = "service:printer";

/// A legacy SLP user agent issuing `total` lookups back to back, each
/// with a fresh XID, the next one sent once the previous is answered.
struct LookupLoop {
    total: u32,
    sent: u32,
    url: &'static str,
    answered: Arc<AtomicU64>,
}

impl LookupLoop {
    fn send(&mut self, ctx: &mut Context<'_>) {
        self.sent += 1;
        let rqst = SrvRqst::new(self.sent as u16, SERVICE_TYPE);
        let group = SimAddr::new(SLP_GROUP, SLP_PORT);
        ctx.udp_send(SLP_CLIENT_PORT, group, slp::encode(&SlpMessage::SrvRqst(rqst)));
    }
}

impl Actor for LookupLoop {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.bind_udp(SLP_CLIENT_PORT).expect("client port free");
        self.send(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        let Ok(SlpMessage::SrvRply(rply)) = slp::decode(&datagram.payload) else {
            panic!("undecodable reply");
        };
        assert_eq!((rply.xid, rply.url.as_str()), (self.sent as u16, self.url));
        self.answered.fetch_add(1, Ordering::Relaxed);
        if self.sent < self.total {
            self.send(ctx);
        }
    }
}

/// Deploys `case`'s bridge next to its legacy service and runs
/// `lookups` sequential lookups from one SLP client through it.
fn serve(case: BridgeCase, lookups: u32) -> (SimNet, starlink::core::BridgeStats) {
    let mut framework = Starlink::new();
    bridges::load_all_mdls(&mut framework).expect("models load");
    let (engine, stats) =
        framework.deploy_with(case.build(BRIDGE), EngineConfig::default()).expect("deploys");
    let answered = Arc::new(AtomicU64::new(0));
    let client = LookupLoop {
        total: lookups,
        sent: 0,
        url: expected_discovery_url(case),
        answered: answered.clone(),
    };
    let mut sim = SimNet::new(0xB0D5 + case.number() as u64);
    sim.add_actor(BRIDGE, engine);
    add_target_service(&mut sim, case, Calibration::instant());
    sim.add_actor("10.0.0.1", client);
    sim.run_until_idle();
    assert_eq!(answered.load(Ordering::Relaxed), u64::from(lookups), "every lookup answered");
    (sim, stats)
}

#[test]
fn served_lookups_leave_constant_state_behind() {
    // Trace events one lookup records, after the bridge's one
    // `deployed` event. Case 2 (fused): client multicast, bridge
    // multicast query, service reply, bridge reply, session complete.
    // Case 1 (interpreted chain) adds the HTTP leg: set_host, connect,
    // GET, description, and the bridge closing the connection it opened.
    for (case, per_lookup) in [(BridgeCase::SlpToUpnp, 10), (BridgeCase::SlpToBonjour, 5)] {
        let lookups = 3 * TRACE_CAP as u32;
        let (sim, stats) = serve(case, lookups);
        let trace = sim.trace();
        let recorded = 1 + per_lookup * u64::from(lookups);
        assert_eq!(trace.len(), TRACE_CAP, "case {}: ring at capacity", case.number());
        assert_eq!(trace.recorded(), recorded, "case {}: every event counted", case.number());
        assert_eq!(trace.dropped(), recorded - TRACE_CAP as u64);
        assert!(matches!(
            trace.iter().last().map(|e| &e.event),
            Some(TraceEvent::SessionComplete { .. })
        ));

        assert_eq!(stats.session_count(), lookups as usize, "case {}", case.number());
        assert_eq!(stats.sessions().len(), SESSION_WINDOW, "the window holds the newest");
        assert_eq!(stats.error_count(), 0, "{:?}", stats.errors());
        stats.assert_consistent(&format!("case {}", case.number()));
        assert_eq!(sim.open_connections(), 0, "case {}: no connection left open", case.number());
    }
}

#[test]
fn recording_a_fused_lookup_into_a_full_ring_allocates_nothing() {
    let (mut sim, _) = serve(BridgeCase::SlpToBonjour, TRACE_CAP as u32);
    assert_eq!(sim.trace().len(), TRACE_CAP);
    // The last lookup's five events (see the wall above), replayed the
    // way the engine and simulator build them: by cloning shared
    // addresses and keys.
    let lookup: Vec<TraceEvent> =
        sim.trace().iter().skip(TRACE_CAP - 5).map(|e| e.event.clone()).collect();
    assert!(matches!(lookup[0], TraceEvent::UdpMulticast { .. }), "{lookup:?}");
    assert!(matches!(lookup[4], TraceEvent::SessionComplete { .. }), "{lookup:?}");

    struct Replay {
        lookup: Vec<TraceEvent>,
        allocations: Arc<AtomicU64>,
    }
    impl Actor for Replay {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let count = allocations(|| {
                for event in &self.lookup {
                    ctx.record(event.clone());
                }
            });
            self.allocations.store(count, Ordering::Relaxed);
        }
    }
    let count = Arc::new(AtomicU64::new(u64::MAX));
    sim.add_actor("10.0.9.9", Replay { lookup, allocations: count.clone() });
    sim.run_until_idle();
    assert_eq!(count.load(Ordering::Relaxed), 0, "recording allocated");
    assert_eq!(sim.trace().len(), TRACE_CAP);
}

#[test]
fn malformed_datagram_spray_is_counted_not_retained() {
    const SPRAY: u64 = 10_000;
    struct Sprayer;
    impl Actor for Sprayer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.bind_udp(SLP_CLIENT_PORT).expect("port free");
            for i in 0..SPRAY {
                let garbage = [0xFF, (i >> 8) as u8, i as u8, 0x00];
                ctx.udp_send(SLP_CLIENT_PORT, SimAddr::new(BRIDGE, SLP_PORT), &garbage[..]);
            }
        }
    }
    let mut framework = Starlink::new();
    bridges::load_all_mdls(&mut framework).expect("models load");
    let case = BridgeCase::SlpToBonjour;
    let (engine, stats) =
        framework.deploy_with(case.build(BRIDGE), EngineConfig::default()).expect("deploys");
    assert!(engine.is_fused());
    let mut sim = SimNet::new(11);
    sim.add_actor(BRIDGE, engine);
    add_target_service(&mut sim, case, Calibration::instant());
    sim.add_actor("10.0.0.1", Sprayer);
    sim.run_until_idle();

    assert_eq!(stats.error_count(), SPRAY, "every malformed datagram counted");
    assert_eq!(stats.errors().len(), ERROR_WINDOW, "only the newest messages retained");
    assert_eq!(stats.concurrency().started, 0, "no session opened");
    assert_eq!(sim.trace().len(), TRACE_CAP);
    stats.assert_consistent("malformed spray");
}

#[test]
fn endless_tcp_header_fails_its_session_at_the_reassembly_cap() {
    const CHUNK: usize = 1024;
    const CHUNKS: u64 = 200;
    /// Connects to the bridge's HTTP port and streams an HTTP request
    /// line that never ends: 1 KiB of request target every millisecond.
    struct EndlessHeader {
        conn: Option<starlink::net::ConnId>,
        sent: u64,
    }
    impl Actor for EndlessHeader {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let target = SimAddr::new(BRIDGE, http::HTTP_PORT);
            self.conn = Some(ctx.tcp_connect(target).expect("the bridge listens"));
        }
        fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
            if let TcpEvent::Connected { conn, .. } = event {
                let _ = ctx.tcp_send(conn, &b"GET /"[..]);
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            let conn = self.conn.expect("connected");
            let _ = ctx.tcp_send(conn, vec![b'a'; CHUNK]);
            self.sent += 1;
            if self.sent < CHUNKS {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
    }

    let mut framework = Starlink::new();
    bridges::load_all_mdls(&mut framework).expect("models load");
    let (engine, stats) = framework
        .deploy_with(bridges::upnp_to_slp(BRIDGE), EngineConfig::default())
        .expect("deploys");
    let mut sim = SimNet::new(12);
    sim.add_actor(BRIDGE, engine);
    add_target_service(&mut sim, BridgeCase::UpnpToSlp, Calibration::fast());
    sim.add_actor(
        "10.0.9.9",
        DelayedActor::new(SimDuration::from_millis(1), EndlessHeader { conn: None, sent: 0 }),
    );
    sim.run_until_idle();

    let c = stats.concurrency();
    assert_eq!((c.started, c.failed, c.active), (1, 1, 0), "the rogue's session failed: {c:?}");
    assert_eq!(stats.error_count(), 1, "{:?}", stats.errors());
    assert!(stats.errors()[0].contains("without a complete message"), "{:?}", stats.errors());
    let overflows: Vec<usize> = sim
        .trace()
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::StreamOverflow { buffered, .. } => Some(buffered),
            _ => None,
        })
        .collect();
    assert_eq!(overflows.len(), 1, "the leg failed once and its later data was dropped");
    assert!(
        overflows[0] > REASSEMBLY_CAP && overflows[0] <= REASSEMBLY_CAP + CHUNK,
        "failed on the chunk that crossed the cap: {} bytes",
        overflows[0]
    );
    stats.assert_consistent("endless header");
}

#[test]
fn a_shard_streams_its_ring_by_sequence_number_and_counts_what_it_lost() {
    use starlink::core::ShardedBridge;
    use starlink::net::SimTime;

    /// Records twice a ring's worth of notes in one batch.
    struct Chatter;
    impl Actor for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            for _ in 0..2 * TRACE_CAP {
                ctx.trace("chatter");
            }
        }
    }

    let mut framework = Starlink::new();
    bridges::load_all_mdls(&mut framework).expect("models load");
    let (engines, _) = framework
        .deploy_sharded(BridgeCase::SlpToBonjour.build(BRIDGE), EngineConfig::default(), 1)
        .expect("deploys");
    let mut bridge =
        ShardedBridge::launch(13, BRIDGE, engines, |_, sim| sim.add_actor("10.0.9.9", Chatter));
    let (lost, streamed) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (lost_in, streamed_in) = (lost.clone(), streamed.clone());
    bridge.handles()[0].set_trace_sink(move |lost, fresh| {
        lost_in.fetch_add(lost, Ordering::Relaxed);
        streamed_in.fetch_add(fresh.len() as u64, Ordering::Relaxed);
    });
    bridge.advance(SimTime::from_millis(2));
    bridge.flush();
    assert_eq!(streamed.load(Ordering::Relaxed), TRACE_CAP as u64, "the full ring streamed");
    assert_eq!(lost.load(Ordering::Relaxed), TRACE_CAP as u64, "the overwritten half counted");
}
