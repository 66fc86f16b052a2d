//! Legacy Bonjour endpoints (Apple SDK behaviour modelled): an mDNS
//! browser client and a responder service.

use crate::calibration::Calibration;
use crate::mdns::wire::{self, DnsMessage, DnsQuestion, DnsResponse, MDNS_GROUP, MDNS_PORT};
use crate::probe::DiscoveryProbe;
use crate::util::Slots;
use starlink_net::{Actor, Context, Datagram, SimAddr, SimTime};

/// A Bonjour browse client: multicasts one PTR question and records the
/// first answer; the calibrated client-side overhead models the Apple
/// SDK's daemon IPC + callback path before the application sees the
/// result.
#[derive(Debug)]
pub struct BonjourClient {
    qname: String,
    id: u16,
    calibration: Calibration,
    probe: DiscoveryProbe,
    sent_at: Option<SimTime>,
    pending: Option<(String, SimTime)>,
}

impl BonjourClient {
    /// Creates a client browsing for `qname` (e.g. `_printer._tcp.local`).
    pub fn new(qname: impl Into<String>, calibration: Calibration, probe: DiscoveryProbe) -> Self {
        BonjourClient {
            qname: qname.into(),
            id: 0x0042,
            calibration,
            probe,
            sent_at: None,
            pending: None,
        }
    }
}

impl Actor for BonjourClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.bind_udp(MDNS_PORT).expect("mdns port free");
        let question = DnsQuestion::new(self.id, self.qname.clone());
        let wire = wire::encode(&DnsMessage::Question(question)).expect("encodable question");
        self.sent_at = Some(ctx.now());
        ctx.udp_send(MDNS_PORT, SimAddr::new(MDNS_GROUP, MDNS_PORT), wire);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        let Ok(DnsMessage::Response(response)) = wire::decode(&datagram.payload) else {
            return;
        };
        let Some(sent_at) = self.sent_at.take() else { return };
        // SDK overhead between wire arrival and application callback.
        let overhead = self.calibration.bonjour_client_overhead.sample(ctx);
        self.pending = Some((response.rdata, sent_at));
        ctx.set_timer(overhead, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        if let Some((url, sent_at)) = self.pending.take() {
            self.probe.record(url, ctx.now().since(sent_at), ctx.now());
        }
    }
}

/// A Bonjour responder: answers matching PTR questions with the service
/// URL after the calibrated responder delay.
#[derive(Debug)]
pub struct BonjourService {
    qname: String,
    url: String,
    calibration: Calibration,
    /// Questions awaiting their calibrated answer, by timer tag.
    pending: Slots<(DnsQuestion, SimAddr)>,
}

impl BonjourService {
    /// Creates a responder for `qname` advertising `url`.
    pub fn new(qname: impl Into<String>, url: impl Into<String>, calibration: Calibration) -> Self {
        BonjourService {
            qname: qname.into(),
            url: url.into(),
            calibration,
            pending: Slots::default(),
        }
    }
}

impl Actor for BonjourService {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.bind_udp(MDNS_PORT).expect("mdns port free");
        ctx.join_group(SimAddr::new(MDNS_GROUP, MDNS_PORT));
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        let Ok(DnsMessage::Question(question)) = wire::decode(&datagram.payload) else {
            return;
        };
        if question.qname != self.qname {
            return;
        }
        let delay = self.calibration.mdns_service_delay.sample(ctx);
        let tag = self.pending.insert((question, datagram.from)) as u64;
        ctx.set_timer(delay, tag);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let Some((question, reply_to)) = self.pending.take(tag as usize) else { return };
        let response = DnsResponse::new(question.id, question.qname, self.url.clone());
        let wire = wire::encode(&DnsMessage::Response(response)).expect("encodable response");
        ctx.udp_send(MDNS_PORT, reply_to, wire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::testing::peak_slots;
    use starlink_net::SimNet;

    #[test]
    fn pending_table_never_exceeds_the_requests_in_flight() {
        let qname = "_printer._tcp.local";
        let service =
            BonjourService::new(qname, "service:printer://10.0.0.3:631", Calibration::fast());
        let client = |probe| {
            Box::new(BonjourClient::new(qname, Calibration::fast(), probe)) as Box<dyn Actor>
        };
        let (peak, answered) = peak_slots(service, |s| s.pending.capacity(), client, 4, 5);
        assert_eq!(answered, 20, "every wave was answered");
        assert_eq!(peak, 4, "answered slots were reused across waves");
    }

    #[test]
    fn native_bonjour_lookup_roundtrip() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(31);
        sim.add_actor(
            "10.0.0.3",
            BonjourService::new(
                "_printer._tcp.local",
                "service:printer://10.0.0.3:631",
                Calibration::fast(),
            ),
        );
        sim.add_actor(
            "10.0.0.1",
            BonjourClient::new("_printer._tcp.local", Calibration::fast(), probe.clone()),
        );
        sim.run_until_idle();
        assert_eq!(probe.first().unwrap().url, "service:printer://10.0.0.3:631");
    }

    #[test]
    fn service_ignores_other_names() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(32);
        sim.add_actor(
            "10.0.0.3",
            BonjourService::new("_scanner._tcp.local", "x", Calibration::fast()),
        );
        sim.add_actor(
            "10.0.0.1",
            BonjourClient::new("_printer._tcp.local", Calibration::fast(), probe.clone()),
        );
        sim.run_until_idle();
        assert!(probe.is_empty());
    }

    #[test]
    fn native_response_time_matches_calibration() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(33);
        sim.add_actor(
            "10.0.0.3",
            BonjourService::new("_printer._tcp.local", "u", Calibration::paper()),
        );
        sim.add_actor(
            "10.0.0.1",
            BonjourClient::new("_printer._tcp.local", Calibration::paper(), probe.clone()),
        );
        sim.run_until_idle();
        let elapsed = probe.first().unwrap().elapsed.as_millis();
        // Fig. 12(a): Bonjour 687–726 ms.
        assert!((675..=745).contains(&elapsed), "elapsed {elapsed}ms");
    }
}
