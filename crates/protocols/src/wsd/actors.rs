//! Legacy WS-Discovery endpoints: a WSDAPI-style probe client and a
//! matching target, the "simple legacy applications" of §V for the
//! fourth protocol family.

use crate::calibration::Calibration;
use crate::probe::DiscoveryProbe;
use crate::util::Slots;
use crate::wsd::wire::{
    self, probe_uuid, WsdMessage, WsdProbe, WsdProbeMatch, WSD_GROUP, WSD_PORT,
};
use starlink_net::{Actor, Context, Datagram, SimAddr, SimTime};

/// The UDP port legacy WSD probe clients bind for unicast replies
/// (distinct from 3702 so client and bridge can share a simulated LAN).
pub const WSD_CLIENT_PORT: u16 = 36_270;

/// A legacy WS-Discovery client: multicasts one Probe and records the
/// first ProbeMatch whose `RelatesTo` echoes its own MessageID, after
/// the calibrated stack overhead.
#[derive(Debug)]
pub struct WsdClient {
    types: String,
    message_id: String,
    calibration: Calibration,
    probe: DiscoveryProbe,
    sent_at: Option<SimTime>,
    pending: Option<(String, SimTime)>,
}

impl WsdClient {
    /// Creates a client probing for `types` (e.g. `dn:printer`).
    pub fn new(types: impl Into<String>, calibration: Calibration, probe: DiscoveryProbe) -> Self {
        WsdClient {
            types: types.into(),
            message_id: probe_uuid(0x5157),
            calibration,
            probe,
            sent_at: None,
            pending: None,
        }
    }

    /// Creates a client with a MessageID derived from `id` — wire-level
    /// harnesses give every client its own uuid this way.
    pub fn with_id(
        types: impl Into<String>,
        id: u64,
        calibration: Calibration,
        probe: DiscoveryProbe,
    ) -> Self {
        let mut client = WsdClient::new(types, calibration, probe);
        client.message_id = probe_uuid(id);
        client
    }
}

impl Actor for WsdClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.bind_udp(WSD_CLIENT_PORT).expect("wsd client port free");
        let probe = WsdProbe { message_id: self.message_id.clone(), types: self.types.clone() };
        let wire = wire::encode(&WsdMessage::Probe(probe));
        self.sent_at = Some(ctx.now());
        ctx.udp_send(WSD_CLIENT_PORT, SimAddr::new(WSD_GROUP, WSD_PORT), wire);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        let Ok(WsdMessage::ProbeMatch(matched)) = wire::decode(&datagram.payload) else {
            ctx.trace("wsd client: ignoring non-probe-match datagram");
            return;
        };
        if matched.relates_to != self.message_id {
            return;
        }
        let Some(sent_at) = self.sent_at.take() else { return };
        // Stack overhead between the wire arrival and the application
        // callback, as in the Bonjour client model.
        let overhead = self.calibration.wsd_client_overhead.sample(ctx);
        self.pending = Some((matched.xaddrs, sent_at));
        ctx.set_timer(overhead, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        if let Some((url, sent_at)) = self.pending.take() {
            self.probe.record(url, ctx.now().since(sent_at), ctx.now());
        }
    }
}

/// A legacy WS-Discovery target: joins the discovery group and answers
/// matching Probes with a unicast ProbeMatch after the calibrated
/// `APP_MAX_DELAY`-style response delay.
#[derive(Debug)]
pub struct WsdTarget {
    types: String,
    xaddrs: String,
    calibration: Calibration,
    /// Probes awaiting their calibrated match, by timer tag.
    pending: Slots<(WsdProbe, SimAddr)>,
}

impl WsdTarget {
    /// Creates a target matching `types`, advertising `xaddrs`.
    pub fn new(
        types: impl Into<String>,
        xaddrs: impl Into<String>,
        calibration: Calibration,
    ) -> Self {
        WsdTarget {
            types: types.into(),
            xaddrs: xaddrs.into(),
            calibration,
            pending: Slots::default(),
        }
    }
}

impl Actor for WsdTarget {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.bind_udp(WSD_PORT).expect("wsd port free");
        ctx.join_group(SimAddr::new(WSD_GROUP, WSD_PORT));
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        let Ok(WsdMessage::Probe(probe)) = wire::decode(&datagram.payload) else {
            return;
        };
        if !probe.types.is_empty() && probe.types != self.types {
            return;
        }
        let delay = self.calibration.wsd_service_delay.sample(ctx);
        let tag = self.pending.insert((probe, datagram.from)) as u64;
        ctx.set_timer(delay, tag);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let Some((probe, reply_to)) = self.pending.take(tag as usize) else { return };
        let matched = WsdProbeMatch::new(
            format!("{}-match", probe.message_id),
            probe.message_id,
            probe.types,
            self.xaddrs.clone(),
        );
        let wire = wire::encode(&WsdMessage::ProbeMatch(matched));
        ctx.udp_send(WSD_PORT, reply_to, wire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::testing::peak_slots;
    use starlink_net::SimNet;

    #[test]
    fn pending_table_never_exceeds_the_requests_in_flight() {
        let service =
            WsdTarget::new("dn:printer", "http://10.0.0.3:5357/device", Calibration::fast());
        let client = |probe| {
            Box::new(WsdClient::new("dn:printer", Calibration::fast(), probe)) as Box<dyn Actor>
        };
        let (peak, answered) = peak_slots(service, |s| s.pending.capacity(), client, 4, 5);
        assert_eq!(answered, 20, "every wave was answered");
        assert_eq!(peak, 4, "answered slots were reused across waves");
    }

    #[test]
    fn native_wsd_probe_roundtrip() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(51);
        sim.add_actor(
            "10.0.0.3",
            WsdTarget::new("dn:printer", "http://10.0.0.3:5357/device", Calibration::fast()),
        );
        sim.add_actor("10.0.0.1", WsdClient::new("dn:printer", Calibration::fast(), probe.clone()));
        sim.run_until_idle();
        let result = probe.first().expect("probe answered");
        assert_eq!(result.url, "http://10.0.0.3:5357/device");
        assert!(result.elapsed.as_millis() >= 2);
    }

    #[test]
    fn target_ignores_other_types() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(52);
        sim.add_actor("10.0.0.3", WsdTarget::new("dn:scanner", "http://x", Calibration::fast()));
        sim.add_actor("10.0.0.1", WsdClient::new("dn:printer", Calibration::fast(), probe.clone()));
        sim.run_until_idle();
        assert!(probe.is_empty());
    }

    #[test]
    fn client_ignores_probe_matches_for_other_probes() {
        // Two clients with distinct uuids: each records exactly its own
        // ProbeMatch — RelatesTo correlation at the legacy endpoint.
        let probe_a = DiscoveryProbe::new();
        let probe_b = DiscoveryProbe::new();
        let mut sim = SimNet::new(53);
        sim.add_actor(
            "10.0.0.3",
            WsdTarget::new("dn:printer", "http://10.0.0.3:5357/device", Calibration::fast()),
        );
        sim.add_actor(
            "10.0.0.1",
            WsdClient::with_id("dn:printer", 1, Calibration::fast(), probe_a.clone()),
        );
        sim.add_actor(
            "10.0.0.4",
            WsdClient::with_id("dn:printer", 2, Calibration::fast(), probe_b.clone()),
        );
        sim.run_until_idle();
        assert_eq!(probe_a.results().len(), 1);
        assert_eq!(probe_b.results().len(), 1);
    }

    #[test]
    fn native_response_time_matches_calibration() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(54);
        sim.add_actor("10.0.0.3", WsdTarget::new("dn:printer", "u", Calibration::paper()));
        sim.add_actor(
            "10.0.0.1",
            WsdClient::new("dn:printer", Calibration::paper(), probe.clone()),
        );
        sim.run_until_idle();
        let elapsed = probe.first().unwrap().elapsed.as_millis();
        // WSDAPI-derived: service 180–420 ms + client 55–75 ms.
        assert!((230..=500).contains(&elapsed), "elapsed {elapsed}ms");
    }
}
