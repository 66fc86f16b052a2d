//! The layer ladder: the same lookups replayed, one in flight, at each
//! public boundary of the served path. Each layer's cost falls out by
//! subtracting the rung below it.
//!
//! | rung      | boundary driven                                       |
//! |-----------|-------------------------------------------------------|
//! | `realnet` | bare `LoopbackUdp` echo thread                        |
//! | `reactor` | bare `GatewayReactor` echo thread (`poll` → `send_from`) |
//! | `sim`     | `SimNet` on this thread: inject → `run_until` → drain  |
//! | `shard`   | `ShardedBridge`: `dispatch` → `flush` → `drain_into`   |
//! | `gateway` | the served `ShardedGateway` over its real socket       |

use crate::driver::{Driver, Expect, SpanNames, Tally};
use crate::procfs;
use crate::quantile::Latencies;
use crate::served::{deploy, load_framework, populate, Served};
use crate::spans::{lookup_id, Recorder};
use crate::workload::{check_reply, ReplyError, Workload};
use starlink_bench::{expected_discovery_url, BRIDGE};
use starlink_core::{EngineHost, ShardInput, ShardOutput, ShardedBridge};
use starlink_net::{
    BufferPool, Bytes, Datagram, GatewayReactor, LoopbackUdp, ReadinessWaker, SimAddr, SimNet,
    SimTime, MAX_DATAGRAM,
};
use starlink_protocols::slp;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const REALNET: SpanNames = SpanNames {
    lookup: "realnet.lookup",
    send: "realnet.send",
    wait: "realnet.wait",
    recv: "realnet.recv",
};
const REACTOR: SpanNames = SpanNames {
    lookup: "reactor.lookup",
    send: "reactor.send",
    wait: "reactor.wait",
    recv: "reactor.recv",
};
const GATEWAY: SpanNames = SpanNames {
    lookup: "gateway.lookup",
    send: "gateway.send",
    wait: "gateway.wait",
    recv: "gateway.recv",
};

/// Round trips per rung, plus what the sim rung left behind.
#[derive(Debug, Default)]
pub struct Ladder {
    /// Bare loopback echo.
    pub realnet: Latencies,
    /// Bare reactor echo.
    pub reactor: Latencies,
    /// In-process simulation, on this thread.
    pub sim: Latencies,
    /// Through the shard queue and worker.
    pub shard: Latencies,
    /// Through the served gateway.
    pub gateway: Latencies,
    /// Lookups through the sim rung.
    pub sim_lookups: u64,
    /// `SimNet::trace` entries the sim rung added.
    pub sim_trace_entries: u64,
    /// Resident-set growth over the sim rung, bytes.
    pub sim_rss_growth: i64,
}

/// Replays `rounds` × `per_round` lookups at every rung, the rungs taking
/// turns each round so host drift hits them alike. The rungs' own
/// threads run on `server_cpu`, where the served deployment's do.
///
/// # Errors
///
/// Returns the failure of a rung's set-up, socket or thread.
#[allow(clippy::too_many_arguments)]
pub fn run(
    workload: Workload,
    seed: u64,
    driver: &mut Driver,
    served: &Served,
    server_cpu: Option<usize>,
    rounds: usize,
    per_round: u64,
    rec: &mut Recorder,
) -> Result<Ladder, String> {
    let url = expected_discovery_url(workload.case());
    let client_port = driver.port().map_err(|e| format!("client port: {e}"))?;
    let realnet = Echo::realnet(server_cpu)?;
    let reactor = Echo::reactor(server_cpu)?;
    let mut sim = SimRung::new(workload, seed, client_port)?;
    let mut shard = ShardRung::new(workload, seed, client_port, server_cpu)?;
    let mut ladder = Ladder::default();
    let io = |e: std::io::Error| format!("ladder socket: {e}");
    for _ in 0..rounds {
        let phase = driver
            .run(realnet.port, Expect::Echo, 1, per_round, rec, &REALNET, None)
            .map_err(io)?;
        ladder.realnet.extend(&phase.rtt);
        let phase = driver
            .run(reactor.port, Expect::Echo, 1, per_round, rec, &REACTOR, None)
            .map_err(io)?;
        ladder.reactor.extend(&phase.rtt);

        let rss = procfs::vm_rss_bytes().unwrap_or(0);
        let entries = sim.sim.trace().len();
        for _ in 0..per_round {
            let outcome = sim.lookup(driver, url, rec, &mut ladder.sim);
            driver.count_external(&outcome);
        }
        ladder.sim_trace_entries += (sim.sim.trace().len() - entries) as u64;
        ladder.sim_rss_growth += procfs::vm_rss_bytes().unwrap_or(0) as i64 - rss as i64;
        ladder.sim_lookups += per_round;

        for _ in 0..per_round {
            let outcome = shard.lookup(driver, url, rec, &mut ladder.shard);
            driver.count_external(&outcome);
        }
        let expect = Expect::Answer(url);
        let phase =
            driver.run(served.ingress, expect, 1, per_round, rec, &GATEWAY, None).map_err(io)?;
        ladder.gateway.extend(&phase.rtt);
    }
    realnet.stop(driver)?;
    reactor.stop(driver)?;
    Ok(ladder)
}

/// Judges the replies one in-process lookup produced: exactly one
/// verified answer for `xid`, addressed back to the client port.
fn judge(replies: &[(&[u8], u16)], xid: u16, url: &str, client_port: u16) -> Tally {
    let mut tally = Tally { attempted: 1, ..Tally::default() };
    for &(payload, to_port) in replies {
        match check_reply(payload, url) {
            Ok(got) if got == xid && to_port == client_port && tally.verified == 0 => {
                tally.verified = 1
            }
            Ok(got) if got == xid && to_port == client_port => tally.duplicates += 1,
            Ok(got) if got == xid => tally.misrouted += 1,
            Ok(_) => tally.duplicates += 1,
            Err(ReplyError::WrongUrl(_)) => tally.wrong_url += 1,
            Err(ReplyError::Garbled) => tally.garbled += 1,
        }
    }
    if tally.verified == 0 {
        tally.failed = 1;
    }
    tally
}

fn client_datagram(client_port: u16, payload: &[u8]) -> Datagram {
    Datagram {
        from: SimAddr::new("127.0.0.1", client_port),
        to: SimAddr::new(BRIDGE, slp::SLP_PORT),
        payload: Bytes::copy_from_slice(payload),
    }
}

/// The virtual clock slaved to real elapsed time, as the gateway does.
fn virtual_now(epoch: Instant) -> SimTime {
    SimTime::from_micros(epoch.elapsed().as_micros() as u64)
}

/// The engine host and target service in a `SimNet` driven directly on
/// the benchmark thread.
struct SimRung {
    sim: SimNet,
    epoch: Instant,
    client_port: u16,
    egress: Vec<Datagram>,
}

impl SimRung {
    fn new(workload: Workload, seed: u64, client_port: u16) -> Result<SimRung, String> {
        let (mut engines, _) = deploy(&load_framework()?, workload, 1)?;
        let mut sim = SimNet::new(seed);
        sim.add_actor(BRIDGE, EngineHost::new(1, engines.remove(0), Arc::new(AtomicU64::new(0))));
        populate(workload.case())(0, &mut sim);
        sim.run_until(SimTime::ZERO);
        Ok(SimRung { sim, epoch: Instant::now(), client_port, egress: Vec::new() })
    }

    fn lookup(
        &mut self,
        driver: &mut Driver,
        url: &str,
        rec: &mut Recorder,
        rtt: &mut Latencies,
    ) -> Tally {
        let (xid, sequence) = driver.next_lookup();
        let id = lookup_id(sequence, xid);
        let datagram = client_datagram(self.client_port, driver.request(xid));
        let parent = rec.open("sim.lookup", None, id);
        let started = Instant::now();
        let span = rec.stamp();
        self.sim.inject_datagram(datagram);
        rec.record("sim.inject", span, rec.stamp(), parent, id);
        let span = rec.stamp();
        self.sim.run_until(virtual_now(self.epoch));
        rec.record("sim.run_until", span, rec.stamp(), parent, id);
        let span = rec.stamp();
        self.egress.clear();
        self.sim.drain_egress_into(&mut self.egress);
        rec.record("sim.drain", span, rec.stamp(), parent, id);
        let elapsed = started.elapsed();
        let replies: Vec<(&[u8], u16)> =
            self.egress.iter().map(|d| (&d.payload[..], d.to.port)).collect();
        let tally = judge(&replies, xid, url, self.client_port);
        if tally.verified == 1 {
            rtt.push(elapsed.as_nanos() as u64);
        }
        rec.close(parent);
        tally
    }
}

/// A one-shard `ShardedBridge` driven through its dispatch queue.
struct ShardRung {
    bridge: ShardedBridge,
    epoch: Instant,
    client_port: u16,
    outputs: Vec<(usize, ShardOutput)>,
}

impl ShardRung {
    fn new(
        workload: Workload,
        seed: u64,
        client_port: u16,
        server_cpu: Option<usize>,
    ) -> Result<ShardRung, String> {
        let (engines, _) = deploy(&load_framework()?, workload, 1)?;
        let before = procfs::task_ids();
        let bridge = ShardedBridge::launch(seed, BRIDGE, engines, populate(workload.case()));
        if let Some(cpu) = server_cpu {
            for tid in procfs::spawned_between(&before, &procfs::task_ids()) {
                procfs::pin(tid, cpu).map_err(|e| format!("pinning the shard rung: {e}"))?;
            }
        }
        Ok(ShardRung { bridge, epoch: Instant::now(), client_port, outputs: Vec::new() })
    }

    fn lookup(
        &mut self,
        driver: &mut Driver,
        url: &str,
        rec: &mut Recorder,
        rtt: &mut Latencies,
    ) -> Tally {
        let (xid, sequence) = driver.next_lookup();
        let id = lookup_id(sequence, xid);
        let input = ShardInput::Datagram(client_datagram(self.client_port, driver.request(xid)));
        let parent = rec.open("shard.lookup", None, id);
        let started = Instant::now();
        let span = rec.stamp();
        self.bridge.dispatch(virtual_now(self.epoch), std::iter::once(input));
        rec.record("shard.dispatch", span, rec.stamp(), parent, id);
        let span = rec.stamp();
        self.bridge.flush();
        rec.record("shard.flush", span, rec.stamp(), parent, id);
        let span = rec.stamp();
        self.outputs.clear();
        self.bridge.drain_into(&mut self.outputs);
        rec.record("shard.drain", span, rec.stamp(), parent, id);
        let elapsed = started.elapsed();
        let replies: Vec<(&[u8], u16)> = self
            .outputs
            .iter()
            .filter_map(|(_, output)| match output {
                ShardOutput::Datagram(d) => Some((&d.payload[..], d.to.port)),
                _ => None,
            })
            .collect();
        let tally = judge(&replies, xid, url, self.client_port);
        if tally.verified == 1 {
            rtt.push(elapsed.as_nanos() as u64);
        }
        rec.close(parent);
        tally
    }
}

/// An echo thread behind one real socket.
struct Echo {
    port: u16,
    stop: Arc<AtomicBool>,
    waker: Option<Arc<ReadinessWaker>>,
    thread: JoinHandle<Result<(), String>>,
}

impl Echo {
    /// A blocking `LoopbackUdp` that sends every datagram back.
    fn realnet(cpu: Option<usize>) -> Result<Echo, String> {
        let socket = LoopbackUdp::bind_with_timeout(Duration::from_millis(100))
            .map_err(|e| format!("realnet echo bind: {e}"))?;
        let port = socket.port().map_err(|e| format!("realnet echo port: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            pin_self(cpu)?;
            let mut buf = vec![0u8; MAX_DATAGRAM];
            while !flag.load(Ordering::SeqCst) {
                // A timeout only re-checks the stop flag.
                if let Ok((len, from)) = socket.recv_into(&mut buf) {
                    if len > 0 {
                        socket
                            .send_to(&buf[..len], from)
                            .map_err(|e| format!("realnet echo: {e}"))?;
                    }
                }
            }
            Ok(())
        });
        Ok(Echo { port, stop, waker: None, thread })
    }

    /// A `GatewayReactor` with one socket, echoing whatever `poll`
    /// drains through `send_from`.
    fn reactor(cpu: Option<usize>) -> Result<Echo, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (ready_tx, ready_rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            pin_self(cpu)?;
            let setup = GatewayReactor::new().and_then(|mut reactor| {
                let port = reactor.add_socket(0)?;
                Ok((reactor, port))
            });
            let mut reactor = match setup {
                Ok((reactor, port)) => {
                    let _ = ready_tx.send(Ok((port, reactor.waker())));
                    reactor
                }
                Err(err) => {
                    let _ = ready_tx.send(Err(format!("reactor echo: {err}")));
                    return Ok(());
                }
            };
            let mut pool = BufferPool::new();
            let mut pending: Vec<(u64, Vec<u8>, u16)> = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                reactor
                    .poll(Some(Duration::from_millis(100)), &mut pool, |tag, payload, from| {
                        pending.push((tag, payload.to_vec(), from));
                    })
                    .map_err(|e| format!("reactor echo poll: {e}"))?;
                for (tag, payload, from) in pending.drain(..) {
                    reactor
                        .send_from(tag, &payload, from)
                        .map_err(|e| format!("reactor echo: {e}"))?;
                }
            }
            Ok(())
        });
        let (port, waker) =
            ready_rx.recv().map_err(|_| "reactor echo thread died".to_owned())??;
        Ok(Echo { port, stop, waker: Some(waker), thread })
    }

    fn stop(self, driver: &Driver) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        match &self.waker {
            Some(waker) => waker.wake(),
            None => driver.poke(self.port).map_err(|e| format!("echo stop: {e}"))?,
        }
        self.thread.join().map_err(|_| "echo thread panicked".to_owned())?
    }
}

/// Pins the calling thread to `cpu`, if one is given.
fn pin_self(cpu: Option<usize>) -> Result<(), String> {
    let Some(cpu) = cpu else { return Ok(()) };
    let tid = procfs::current_tid().ok_or("cannot read /proc/thread-self")?;
    procfs::pin(tid, cpu).map_err(|e| format!("pinning an echo thread: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_wants_exactly_one_answer_to_the_client() {
        let url = "u://x";
        let answer = |xid| slp::encode(&slp::SlpMessage::SrvRply(slp::SrvRply::new(xid, url)));
        let (a7, a8) = (answer(7), answer(8));
        assert_eq!(
            judge(&[(&a7, 40)], 7, url, 40),
            Tally { attempted: 1, verified: 1, ..Tally::default() }
        );
        let twice = judge(&[(&a7, 40), (&a7, 40)], 7, url, 40);
        assert_eq!((twice.verified, twice.duplicates), (1, 1));
        let elsewhere = judge(&[(&a7, 41)], 7, url, 40);
        assert_eq!((elsewhere.failed, elsewhere.misrouted), (1, 1));
        let stranger = judge(&[(&a8, 40)], 7, url, 40);
        assert_eq!((stranger.failed, stranger.duplicates), (1, 1));
        let none = judge(&[], 7, url, 40);
        assert_eq!((none.failed, none.verified), (1, 0));
        assert!(none.outputs_correct());
    }
}
