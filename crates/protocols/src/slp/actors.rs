//! Legacy SLP endpoints: the "simple legacy applications to lookup a
//! simple test service, and respond to lookup requests" of §V, modelled
//! on OpenSLP's observed behaviour.

use crate::calibration::Calibration;
use crate::probe::DiscoveryProbe;
use crate::slp::wire::{self, SlpMessage, SrvRply, SrvRqst, SLP_GROUP, SLP_PORT};
use crate::util::Slots;
use starlink_net::{Actor, Context, Datagram, SimAddr, SimTime};

/// The UDP port legacy SLP clients bind for replies (distinct from the
/// service port so client and bridge can coexist on one simulated LAN).
pub const SLP_CLIENT_PORT: u16 = 34_427;

/// A legacy SLP user agent: multicasts one SrvRqst at start and records
/// the first SrvRply.
#[derive(Debug)]
pub struct SlpClient {
    service_type: String,
    xid: u16,
    probe: DiscoveryProbe,
    sent_at: Option<SimTime>,
}

impl SlpClient {
    /// Creates a client looking up `service_type`.
    pub fn new(service_type: impl Into<String>, probe: DiscoveryProbe) -> Self {
        SlpClient { service_type: service_type.into(), xid: 0x1234, probe, sent_at: None }
    }
}

impl Actor for SlpClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.bind_udp(SLP_CLIENT_PORT).expect("client port free");
        let rqst = SrvRqst::new(self.xid, self.service_type.clone());
        let wire = wire::encode(&SlpMessage::SrvRqst(rqst));
        self.sent_at = Some(ctx.now());
        ctx.udp_send(SLP_CLIENT_PORT, SimAddr::new(SLP_GROUP, SLP_PORT), wire);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        let Ok(SlpMessage::SrvRply(rply)) = wire::decode(&datagram.payload) else {
            ctx.trace("slp client: ignoring non-reply datagram");
            return;
        };
        if rply.xid != self.xid || rply.error_code != 0 {
            return;
        }
        if let Some(sent_at) = self.sent_at.take() {
            self.probe.record(rply.url, ctx.now().since(sent_at), ctx.now());
        }
    }
}

/// A legacy SLP service agent: answers matching SrvRqsts after the
/// calibrated OpenSLP response delay (the source of the ≈6 s figures in
/// Fig. 12(a)).
#[derive(Debug)]
pub struct SlpService {
    service_type: String,
    url: String,
    calibration: Calibration,
    /// Requests awaiting their calibrated reply, by timer tag.
    pending: Slots<(SrvRqst, SimAddr)>,
}

impl SlpService {
    /// Creates a service advertising `url` for `service_type`.
    pub fn new(
        service_type: impl Into<String>,
        url: impl Into<String>,
        calibration: Calibration,
    ) -> Self {
        SlpService {
            service_type: service_type.into(),
            url: url.into(),
            calibration,
            pending: Slots::default(),
        }
    }
}

impl Actor for SlpService {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.bind_udp(SLP_PORT).expect("slp port free");
        ctx.join_group(SimAddr::new(SLP_GROUP, SLP_PORT));
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        let Ok(SlpMessage::SrvRqst(rqst)) = wire::decode(&datagram.payload) else {
            return;
        };
        if !rqst.service_type.is_empty() && rqst.service_type != self.service_type {
            return;
        }
        let delay = self.calibration.slp_service_delay.sample(ctx);
        let tag = self.pending.insert((rqst, datagram.from)) as u64;
        ctx.set_timer(delay, tag);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let Some((rqst, reply_to)) = self.pending.take(tag as usize) else { return };
        let mut rply = SrvRply::new(rqst.xid, self.url.clone());
        rply.lang_tag = rqst.lang_tag;
        let wire = wire::encode(&SlpMessage::SrvRply(rply));
        ctx.udp_send(SLP_PORT, reply_to, wire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::testing::peak_slots;
    use starlink_net::SimNet;

    #[test]
    fn pending_table_never_exceeds_the_requests_in_flight() {
        let service = SlpService::new(
            "service:printer",
            "service:printer://10.0.0.3:631",
            Calibration::fast(),
        );
        let client = |probe| Box::new(SlpClient::new("service:printer", probe)) as Box<dyn Actor>;
        let (peak, answered) = peak_slots(service, |s| s.pending.capacity(), client, 4, 5);
        assert_eq!(answered, 20, "every wave was answered");
        assert_eq!(peak, 4, "answered slots were reused across waves");
    }

    #[test]
    fn native_slp_lookup_roundtrip() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(21);
        sim.add_actor(
            "10.0.0.3",
            SlpService::new(
                "service:printer",
                "service:printer://10.0.0.3:631",
                Calibration::fast(),
            ),
        );
        sim.add_actor("10.0.0.1", SlpClient::new("service:printer", probe.clone()));
        sim.run_until_idle();
        let result = probe.first().expect("lookup completed");
        assert_eq!(result.url, "service:printer://10.0.0.3:631");
        assert!(result.elapsed.as_millis() >= 4);
    }

    #[test]
    fn service_ignores_other_service_types() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(22);
        sim.add_actor(
            "10.0.0.3",
            SlpService::new("service:scanner", "service:scanner://x", Calibration::fast()),
        );
        sim.add_actor("10.0.0.1", SlpClient::new("service:printer", probe.clone()));
        sim.run_until_idle();
        assert!(probe.is_empty());
    }

    #[test]
    fn native_response_time_matches_calibration() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(23);
        sim.add_actor(
            "10.0.0.3",
            SlpService::new("service:printer", "service:printer://x", Calibration::paper()),
        );
        sim.add_actor("10.0.0.1", SlpClient::new("service:printer", probe.clone()));
        sim.run_until_idle();
        let elapsed = probe.first().unwrap().elapsed.as_millis();
        // Fig. 12(a): SLP 5982–6053 ms.
        assert!((5_975..=6_060).contains(&elapsed), "elapsed {elapsed}ms");
    }
}
