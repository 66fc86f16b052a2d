//! The three workloads, their inputs and the check every reply passes.

use starlink_core::EngineConfig;
use starlink_net::SimDuration;
use starlink_protocols::bridges::{self, BridgeCase};
use starlink_protocols::{slp, Calibration};
use std::sync::Arc;

/// The service type every lookup asks for (the one the in-shard
/// services of the bench harness advertise).
pub const SERVICE_TYPE: &str = "service:printer";

/// Session idle timeout. Every exchange completes within microseconds
/// (zero link latency, zero service delays), so 1 s never expires a live
/// session. It bounds the simulator's timer queue: a cancelled expiry
/// timer stays queued until it falls due, so the queue grows for one
/// timeout after start and is steady after that — within the warm-up
/// here, where the 30 s default would keep it growing through the
/// whole measurement.
pub const IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(IDLE_TIMEOUT_SECS);

/// [`IDLE_TIMEOUT`] in seconds.
pub const IDLE_TIMEOUT_SECS: u64 = 1;

/// Byte offset of the XID in an SLPv2 header.
const XID_OFFSET: usize = 10;

/// One served-lookup workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Case 2 (SLP→Bonjour), answer cache off, fresh XID per lookup:
    /// every lookup opens a session and runs a fused translation.
    Fused,
    /// Case 1 (SLP→UPnP): the interpreted SSDP + HTTP-over-TCP chain.
    Chain,
    /// Case 2 with the answer cache on: lookups are replayed from the
    /// cache, bypassing translation.
    Cached,
}

/// Nominal rates used only to size a run's phases from `--seconds`, so
/// every commit measures the same number of lookups.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Lookups per second with one in flight.
    pub light_per_s: f64,
    /// Lookups per second with [`crate::LOAD_DEPTH`] in flight.
    pub load_per_s: f64,
    /// Lookups per second through the slowest ladder rung.
    pub rung_per_s: f64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Fused, Workload::Chain, Workload::Cached];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fused => "fused",
            Workload::Chain => "chain",
            Workload::Cached => "cached",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The bridge case served.
    pub fn case(self) -> BridgeCase {
        match self {
            Workload::Fused | Workload::Cached => BridgeCase::SlpToBonjour,
            Workload::Chain => BridgeCase::SlpToUpnp,
        }
    }

    /// Whether the deployed engine must run the fused path (and the
    /// chain the interpreted one). A silent fallback fails the run.
    pub fn expects_fused(self) -> bool {
        self != Workload::Chain
    }

    /// Whether the answer cache is on.
    pub fn cached(self) -> bool {
        self == Workload::Cached
    }

    /// The engine configuration: sessions keyed by XID (one client
    /// socket carries every lookup), an idle timeout of
    /// [`IDLE_TIMEOUT`], plus the calibrated answer TTL on `cached`.
    pub fn engine_config(self) -> EngineConfig {
        EngineConfig {
            idle_timeout: IDLE_TIMEOUT,
            correlator: Some(Arc::new(bridges::default_correlator())),
            answer_ttl: self.cached().then(|| self.case().answer_ttl(&Calibration::instant())),
            ..EngineConfig::default()
        }
    }

    /// Phase sizing (see [`Sizing`]).
    pub fn sizing(self) -> Sizing {
        match self {
            Workload::Fused => {
                Sizing { light_per_s: 15_000.0, load_per_s: 50_000.0, rung_per_s: 12_000.0 }
            }
            Workload::Chain => {
                Sizing { light_per_s: 6_000.0, load_per_s: 8_500.0, rung_per_s: 5_000.0 }
            }
            Workload::Cached => {
                Sizing { light_per_s: 18_000.0, load_per_s: 100_000.0, rung_per_s: 15_000.0 }
            }
        }
    }
}

/// The SLP request of one lookup, re-stamped with each XID.
#[derive(Debug, Clone)]
pub struct Request {
    wire: Vec<u8>,
}

impl Request {
    /// The native SrvRqst every lookup sends.
    pub fn new() -> Self {
        Request { wire: slp::encode(&slp::SlpMessage::SrvRqst(slp::SrvRqst::new(0, SERVICE_TYPE))) }
    }

    /// The request bytes carrying `xid`.
    pub fn with_xid(&mut self, xid: u16) -> &[u8] {
        self.wire[XID_OFFSET..XID_OFFSET + 2].copy_from_slice(&xid.to_be_bytes());
        &self.wire
    }
}

impl Default for Request {
    fn default() -> Self {
        Request::new()
    }
}

/// Why a reply was not a verified answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyError {
    /// Not a decodable SLP SrvRply.
    Garbled,
    /// A SrvRply for `xid` carrying a URL other than the expected one.
    WrongUrl(u16),
}

/// Decodes `payload` with the native SLP codec and checks its URL;
/// returns the XID it answers.
///
/// # Errors
///
/// Returns [`ReplyError`] for anything but a SrvRply with `expected_url`.
pub fn check_reply(payload: &[u8], expected_url: &str) -> Result<u16, ReplyError> {
    match slp::decode(payload) {
        Ok(slp::SlpMessage::SrvRply(reply)) if reply.error_code == 0 => {
            if reply.url == expected_url {
                Ok(reply.xid)
            } else {
                Err(ReplyError::WrongUrl(reply.xid))
            }
        }
        _ => Err(ReplyError::Garbled),
    }
}

/// The XID sequence: a seeded permutation of all 65,536 XIDs, cycled.
#[derive(Debug, Clone)]
pub struct XidSequence {
    order: Vec<u16>,
    next: usize,
}

impl XidSequence {
    /// The permutation `seed` picks (Fisher–Yates over splitmix64).
    pub fn new(seed: u64) -> Self {
        let mut order: Vec<u16> = (0..=u16::MAX).collect();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        XidSequence { order, next: 0 }
    }

    /// The next XID, wrapping after all 65,536.
    pub fn next_xid(&mut self) -> u16 {
        let xid = self.order[self.next];
        self.next = (self.next + 1) % self.order.len();
        xid
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restamped_requests_match_the_codec() {
        let mut request = Request::new();
        for xid in [0u16, 1, 0x1234, u16::MAX] {
            let expected =
                slp::encode(&slp::SlpMessage::SrvRqst(slp::SrvRqst::new(xid, SERVICE_TYPE)));
            assert_eq!(request.with_xid(xid), expected.as_slice(), "xid {xid}");
        }
    }

    #[test]
    fn replies_are_checked_for_type_and_url() {
        let url = "service:printer://10.0.0.3:631";
        let ok = slp::encode(&slp::SlpMessage::SrvRply(slp::SrvRply::new(77, url)));
        assert_eq!(check_reply(&ok, url), Ok(77));
        let wrong = slp::encode(&slp::SlpMessage::SrvRply(slp::SrvRply::new(78, "service:x://y")));
        assert_eq!(check_reply(&wrong, url), Err(ReplyError::WrongUrl(78)));
        let request = Request::new().with_xid(5).to_vec();
        assert_eq!(check_reply(&request, url), Err(ReplyError::Garbled));
        assert_eq!(check_reply(&ok[..ok.len() - 3], url), Err(ReplyError::Garbled));
    }

    #[test]
    fn the_seed_permutes_every_xid() {
        let mut a = XidSequence::new(1);
        let mut seen = vec![false; 1 << 16];
        let first: Vec<u16> = (0..1 << 16).map(|_| a.next_xid()).collect();
        for &xid in &first {
            assert!(!seen[xid as usize], "xid {xid} repeated within one cycle");
            seen[xid as usize] = true;
        }
        assert_eq!(a.next_xid(), first[0], "the sequence cycles");
        let mut again = XidSequence::new(1);
        assert_eq!(again.next_xid(), first[0], "same seed, same inputs");
        let mut other = XidSequence::new(2);
        let other_first: Vec<u16> = (0..8).map(|_| other.next_xid()).collect();
        assert_ne!(other_first, first[..8], "another seed, another order");
    }

    #[test]
    fn workloads_parse_by_name_and_pick_their_path() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("open-loop"), None);
        assert!(Workload::Fused.expects_fused() && !Workload::Chain.expects_fused());
        assert!(Workload::Cached.engine_config().answer_ttl.is_some());
        assert!(Workload::Fused.engine_config().answer_ttl.is_none());
    }
}
