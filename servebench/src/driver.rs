//! The closed-loop load generator: one thread, one client socket,
//! requests multiplexed by SLP XID, every reply verified.

use crate::client::Client;
use crate::quantile::Latencies;
use crate::spans::{lookup_id, Recorder};
use crate::workload::{check_reply, ReplyError, Request, XidSequence};
use starlink_core::ShardHandle;
use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

/// A lookup with no verified reply this long after its send has failed.
pub const LOOKUP_DEADLINE: Duration = Duration::from_secs(2);

/// What a reply must be.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// A native SrvRply for the lookup's XID carrying this URL.
    Answer(&'static str),
    /// The request itself, echoed back by a bare socket rung.
    Echo,
}

/// Span names of one boundary the driver talks to.
#[derive(Debug, Clone, Copy)]
pub struct SpanNames {
    /// The whole lookup, from send to verified reply.
    pub lookup: &'static str,
    /// The send call.
    pub send: &'static str,
    /// The blocking wait.
    pub wait: &'static str,
    /// The non-blocking drain (decode and verify included).
    pub recv: &'static str,
}

/// Replies and lookups the driver has seen go wrong, over its life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Lookups sent.
    pub attempted: u64,
    /// Lookups answered by a verified reply.
    pub verified: u64,
    /// Lookups resolved without a verified reply.
    pub failed: u64,
    /// Lookups whose reply never came before [`LOOKUP_DEADLINE`].
    pub timed_out: u64,
    /// Replies that did not decode as the expected message.
    pub garbled: u64,
    /// Replies for an XID with no lookup outstanding.
    pub duplicates: u64,
    /// Replies from a port other than the one the lookup was sent to.
    pub misrouted: u64,
    /// Answers carrying another URL than the expected one.
    pub wrong_url: u64,
}

impl Tally {
    /// Whether every reply seen was a correct one (lost lookups are
    /// failures, not wrong outputs).
    pub fn outputs_correct(&self) -> bool {
        self.garbled + self.duplicates + self.misrouted + self.wrong_url == 0
    }

    /// Adds another tally.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.verified += other.verified;
        self.failed += other.failed;
        self.timed_out += other.timed_out;
        self.garbled += other.garbled;
        self.duplicates += other.duplicates;
        self.misrouted += other.misrouted;
        self.wrong_url += other.wrong_url;
    }
}

/// What one closed-loop phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Lookups resolved (verified or failed).
    pub lookups: u64,
    /// Send-to-verified round trips.
    pub rtt: Latencies,
    /// Largest shard backlog seen on a driver wake (when sampled).
    pub backlog_max: u64,
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    sequence: u64,
    sent: Instant,
    span: Option<u32>,
}

/// The load generator.
pub struct Driver {
    client: Client,
    request: Request,
    xids: XidSequence,
    sequence: u64,
    outstanding: Vec<Option<Outstanding>>,
    order: VecDeque<(u16, u64)>,
    in_flight: usize,
    tally: Tally,
}

impl Driver {
    /// A driver on a fresh client socket whose XID order `seed` picks.
    ///
    /// # Errors
    ///
    /// Returns the error of a failed socket bind.
    pub fn new(seed: u64) -> io::Result<Driver> {
        Ok(Driver {
            client: Client::bind()?,
            request: Request::new(),
            xids: XidSequence::new(seed),
            sequence: 0,
            outstanding: vec![None; 1 << 16],
            order: VecDeque::new(),
            in_flight: 0,
            tally: Tally::default(),
        })
    }

    /// Everything seen so far.
    pub fn tally(&self) -> Tally {
        self.tally
    }

    /// The client socket's port.
    ///
    /// # Errors
    ///
    /// Returns the error of a failed address lookup.
    pub fn port(&self) -> io::Result<u16> {
        self.client.port()
    }

    /// Sends an unchecked datagram (used to unblock echo rungs).
    ///
    /// # Errors
    ///
    /// Returns the error of a failed send.
    pub fn poke(&self, port: u16) -> io::Result<()> {
        self.client.send_to(&[], port)
    }

    /// Next lookup's XID and run counter; XIDs still outstanding (a
    /// full wrap with a lookup stuck) are skipped.
    pub fn next_lookup(&mut self) -> (u16, u64) {
        let mut xid = self.xids.next_xid();
        while self.outstanding[xid as usize].is_some() {
            xid = self.xids.next_xid();
        }
        self.sequence += 1;
        (xid, self.sequence)
    }

    /// The request bytes for `xid`.
    pub fn request(&mut self, xid: u16) -> &[u8] {
        self.request.with_xid(xid)
    }

    /// Counts a lookup made outside the driver's socket (in-process
    /// ladder rungs) into the tally.
    pub fn count_external(&mut self, outcome: &Tally) {
        self.tally.add(outcome);
    }

    /// Runs `count` lookups against `127.0.0.1:port` keeping `depth` in
    /// flight, and returns once each is verified or has failed.
    /// `backlog`, when given, is sampled on every wake.
    ///
    /// # Errors
    ///
    /// Returns a socket or `epoll` error.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        port: u16,
        expect: Expect,
        depth: usize,
        count: u64,
        rec: &mut Recorder,
        names: &SpanNames,
        backlog: Option<&ShardHandle>,
    ) -> io::Result<Phase> {
        let mut phase = Phase { rtt: Latencies::with_capacity(count as usize), ..Phase::default() };
        let mut sent = 0u64;
        let mut finished: Vec<Option<u32>> = Vec::with_capacity(depth);
        while phase.lookups < count {
            while sent < count && self.in_flight < depth {
                phase.lookups += self.send_next(port, rec, names);
                sent += 1;
            }
            if phase.lookups >= count {
                break;
            }
            // With one lookup in flight, the wait and the drain belong
            // to it; with many they serve all of them.
            let (parent, lookup) = match (depth, self.order.back()) {
                (1, Some(&(xid, sequence))) => {
                    (self.outstanding[xid as usize].and_then(|o| o.span), lookup_id(sequence, xid))
                }
                _ => (None, 0),
            };
            let timeout = self.order.front().map_or(LOOKUP_DEADLINE, |&(xid, _)| {
                self.outstanding[xid as usize].map_or(Duration::ZERO, |o| {
                    (o.sent + LOOKUP_DEADLINE).saturating_duration_since(Instant::now())
                })
            });
            let waited = rec.stamp();
            self.client.wait(timeout.max(Duration::from_millis(1)))?;
            rec.record(names.wait, waited, rec.stamp(), parent, lookup);
            if let Some(handle) = backlog {
                phase.backlog_max = phase.backlog_max.max(handle.backlog());
            }
            let drained = rec.stamp();
            phase.lookups += self.drain(port, expect, &mut phase.rtt, &mut finished)?;
            rec.record(names.recv, drained, rec.stamp(), parent, lookup);
            for span in finished.drain(..) {
                rec.close(span);
            }
            phase.lookups += self.expire();
        }
        Ok(phase)
    }

    /// Sends the next lookup; returns 1 when the send itself failed
    /// (the lookup is resolved as failed), 0 otherwise.
    fn send_next(&mut self, port: u16, rec: &mut Recorder, names: &SpanNames) -> u64 {
        let (xid, sequence) = self.next_lookup();
        let id = lookup_id(sequence, xid);
        let span = rec.open(names.lookup, None, id);
        let started = rec.stamp();
        let sent = Instant::now();
        let wire = self.request.with_xid(xid);
        let result = self.client.send_to(wire, port);
        rec.record(names.send, started, rec.stamp(), span, id);
        self.tally.attempted += 1;
        if result.is_err() {
            rec.close(span);
            self.tally.failed += 1;
            return 1;
        }
        self.outstanding[xid as usize] = Some(Outstanding { sequence, sent, span });
        self.order.push_back((xid, sequence));
        self.in_flight += 1;
        0
    }

    /// Receives and verifies every queued reply; returns how many
    /// lookups they resolved.
    fn drain(
        &mut self,
        port: u16,
        expect: Expect,
        rtt: &mut Latencies,
        finished: &mut Vec<Option<u32>>,
    ) -> io::Result<u64> {
        let mut resolved = 0u64;
        let Driver { client, request, outstanding, in_flight, tally, .. } = self;
        client.drain(|payload, from| {
            let verdict = match expect {
                Expect::Answer(url) => check_reply(payload, url),
                Expect::Echo => echo_xid(payload, request),
            };
            let (xid, ok) = match verdict {
                Ok(xid) if from == port => (xid, true),
                Ok(xid) => {
                    tally.misrouted += 1;
                    (xid, false)
                }
                Err(ReplyError::WrongUrl(xid)) => {
                    tally.wrong_url += 1;
                    (xid, false)
                }
                Err(ReplyError::Garbled) => {
                    tally.garbled += 1;
                    return;
                }
            };
            let Some(lookup) = outstanding[xid as usize].take() else {
                tally.duplicates += 1;
                return;
            };
            *in_flight -= 1;
            resolved += 1;
            if ok {
                tally.verified += 1;
                rtt.push(lookup.sent.elapsed().as_nanos() as u64);
            } else {
                tally.failed += 1;
            }
            finished.push(lookup.span);
        })?;
        Ok(resolved)
    }

    /// Fails lookups past their deadline; returns how many.
    fn expire(&mut self) -> u64 {
        let mut expired = 0;
        while let Some(&(xid, sequence)) = self.order.front() {
            match self.outstanding[xid as usize] {
                Some(lookup) if lookup.sequence == sequence => {
                    if lookup.sent.elapsed() < LOOKUP_DEADLINE {
                        break;
                    }
                    self.outstanding[xid as usize] = None;
                    self.in_flight -= 1;
                    self.tally.failed += 1;
                    self.tally.timed_out += 1;
                    expired += 1;
                }
                // Already resolved.
                _ => {}
            }
            self.order.pop_front();
        }
        expired
    }
}

/// The XID of an echoed request, if the echo is byte-exact.
fn echo_xid(payload: &[u8], request: &mut Request) -> Result<u16, ReplyError> {
    let xid = match payload.get(10..12) {
        Some(bytes) => u16::from_be_bytes([bytes[0], bytes[1]]),
        None => return Err(ReplyError::Garbled),
    };
    if request.with_xid(xid) == payload {
        Ok(xid)
    } else {
        Err(ReplyError::Garbled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;

    const NAMES: SpanNames =
        SpanNames { lookup: "t.lookup", send: "t.send", wait: "t.wait", recv: "t.recv" };

    /// An echo peer that answers every datagram `copies` times.
    fn echo_peer(copies: usize, count: usize) -> (u16, std::thread::JoinHandle<()>) {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let port = socket.local_addr().unwrap().port();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 512];
            for _ in 0..count {
                let (len, from) = socket.recv_from(&mut buf).unwrap();
                for _ in 0..copies {
                    socket.send_to(&buf[..len], from).unwrap();
                }
            }
        });
        (port, handle)
    }

    #[test]
    fn closed_loop_verifies_every_echo() {
        let (port, peer) = echo_peer(1, 200);
        let mut driver = Driver::new(9).unwrap();
        let mut rec = Recorder::new(true);
        let mut phase = driver.run(port, Expect::Echo, 8, 200, &mut rec, &NAMES, None).unwrap();
        peer.join().unwrap();
        assert_eq!(phase.lookups, 200);
        assert_eq!(phase.rtt.len(), 200);
        assert!(phase.rtt.percentile(50.0).unwrap() > 0);
        let tally = driver.tally();
        assert_eq!((tally.attempted, tally.verified, tally.failed), (200, 200, 0));
        assert!(tally.outputs_correct());
        let lookups = rec.spans().iter().filter(|s| s.name == "t.lookup").count();
        assert_eq!(lookups, 200);
    }

    #[test]
    fn duplicated_replies_are_flagged() {
        let (port, peer) = echo_peer(2, 21);
        let mut driver = Driver::new(3).unwrap();
        let mut rec = Recorder::new(false);
        driver.run(port, Expect::Echo, 1, 20, &mut rec, &NAMES, None).unwrap();
        // The peer sends both copies before reading the next request, so
        // every earlier duplicate is drained before this lookup resolves.
        driver.run(port, Expect::Echo, 1, 1, &mut rec, &NAMES, None).unwrap();
        peer.join().unwrap();
        let tally = driver.tally();
        assert_eq!(tally.verified, 21);
        assert!(tally.duplicates >= 20, "{tally:?}");
        assert!(!tally.outputs_correct());
    }

    #[test]
    fn unanswered_lookups_fail_at_the_deadline() {
        // A bound socket that never answers.
        let silent = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let port = silent.local_addr().unwrap().port();
        let mut driver = Driver::new(5).unwrap();
        let mut rec = Recorder::new(false);
        let started = Instant::now();
        let phase = driver.run(port, Expect::Echo, 2, 2, &mut rec, &NAMES, None).unwrap();
        assert_eq!(phase.lookups, 2);
        assert!(started.elapsed() >= LOOKUP_DEADLINE);
        let tally = driver.tally();
        assert_eq!((tally.failed, tally.timed_out, tally.verified), (2, 2, 0));
        assert!(tally.outputs_correct(), "a lost lookup is a failure, not a wrong output");
    }
}
