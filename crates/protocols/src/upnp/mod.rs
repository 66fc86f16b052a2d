//! Legacy UPnP endpoints. UPnP discovery "uses two protocols" (§V-B):
//! SSDP for the multicast search and HTTP for retrieving the device
//! description, so the control point (client) and device (service) here
//! drive both legs, with CyberLink-calibrated delays.

use crate::calibration::Calibration;
use crate::http::{self, HttpGet, HttpMessage, HttpOk, UPNP_HTTP_PORT};
use crate::probe::DiscoveryProbe;
use crate::ssdp::{self, MSearch, SsdpMessage, SsdpResponse, SSDP_GROUP, SSDP_PORT};
use crate::util::Slots;
use starlink_net::{Actor, ConnId, Context, Datagram, SimAddr, SimTime, TcpEvent};

/// Device timers interleave two pending tables on one tag space:
/// searches on even tags (`2·index`), GETs on odd (`2·index+1`).
/// (A fixed split point — searches at `1000+index`, GETs at `2000+index`
/// — capped the device at 1000 concurrent searches: the 1001st search's
/// tag landed in the GET range and its response was never sent. The
/// sharded saturation bench found it.)
const TAG_SEARCH_PARITY: u64 = 0;
const TAG_GET_PARITY: u64 = 1;
/// Timer tag used by the client for the pre-GET think time.
const TAG_CLIENT_THINK: u64 = 1;
/// Timer tag used by the client for the final stack overhead.
const TAG_CLIENT_DONE: u64 = 2;

/// A legacy UPnP device: answers M-SEARCH on SSDP and serves its
/// description document over HTTP.
#[derive(Debug)]
pub struct UpnpDevice {
    service_type: String,
    host: String,
    calibration: Calibration,
    /// Pending SSDP responses: (search, requester).
    pending_searches: Slots<(MSearch, SimAddr)>,
    /// Pending HTTP responses: connection awaiting the description.
    pending_gets: Slots<ConnId>,
}

impl UpnpDevice {
    /// Creates a device advertising `service_type`, serving its
    /// description at `http://{host}:5000/desc.xml`.
    pub fn new(
        service_type: impl Into<String>,
        host: impl Into<String>,
        calibration: Calibration,
    ) -> Self {
        UpnpDevice {
            service_type: service_type.into(),
            host: host.into(),
            calibration,
            pending_searches: Slots::default(),
            pending_gets: Slots::default(),
        }
    }

    fn location(&self) -> String {
        format!("http://{}:{}/desc.xml", self.host, UPNP_HTTP_PORT)
    }

    fn url_base(&self) -> String {
        format!("http://{}:{}", self.host, UPNP_HTTP_PORT)
    }
}

impl Actor for UpnpDevice {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.bind_udp(SSDP_PORT).expect("ssdp port free");
        ctx.join_group(SimAddr::new(SSDP_GROUP, SSDP_PORT));
        ctx.listen_tcp(UPNP_HTTP_PORT);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        let Ok(SsdpMessage::MSearch(search)) = ssdp::decode(&datagram.payload) else {
            return;
        };
        if search.st != self.service_type && search.st != "ssdp:all" {
            return;
        }
        // Respond within the device's calibrated slice of the MX window.
        let delay = self.calibration.ssdp_device_delay.sample(ctx);
        let index = self.pending_searches.insert((search, datagram.from)) as u64;
        ctx.set_timer(delay, 2 * index + TAG_SEARCH_PARITY);
    }

    fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
        if let TcpEvent::Data { conn, payload } = event {
            let Ok(HttpMessage::Get(_)) = http::decode(&payload) else {
                ctx.trace("upnp device: unsupported HTTP request");
                return;
            };
            let delay = self.calibration.http_device_delay.sample(ctx);
            let index = self.pending_gets.insert(conn) as u64;
            ctx.set_timer(delay, 2 * index + TAG_GET_PARITY);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let index = (tag / 2) as usize;
        if tag % 2 == TAG_GET_PARITY {
            let Some(conn) = self.pending_gets.take(index) else { return };
            let body = http::device_description(&self.url_base(), &self.service_type);
            let wire = http::encode(&HttpMessage::Ok(HttpOk::xml(body)));
            if let Err(err) = ctx.tcp_send(conn, wire) {
                ctx.trace(format!("upnp device: send failed: {err}"));
            }
        } else {
            let Some((search, reply_to)) = self.pending_searches.take(index) else { return };
            let response =
                SsdpResponse::new(search.st, format!("uuid:device-{}", self.host), self.location());
            let wire = ssdp::encode(&SsdpMessage::Response(response));
            ctx.udp_send(SSDP_PORT, reply_to, wire);
        }
    }
}

#[derive(Debug)]
enum ClientPhase {
    WaitingSsdp,
    Thinking { location: String },
    WaitingHttp,
    Draining { url: String },
    Done,
}

/// A legacy UPnP control point: multicasts M-SEARCH, fetches the device
/// description named by LOCATION, and records the discovered URL base.
#[derive(Debug)]
pub struct UpnpClient {
    service_type: String,
    calibration: Calibration,
    probe: DiscoveryProbe,
    sent_at: Option<SimTime>,
    phase: ClientPhase,
}

impl UpnpClient {
    /// Creates a control point searching for `service_type`.
    pub fn new(
        service_type: impl Into<String>,
        calibration: Calibration,
        probe: DiscoveryProbe,
    ) -> Self {
        UpnpClient {
            service_type: service_type.into(),
            calibration,
            probe,
            sent_at: None,
            phase: ClientPhase::WaitingSsdp,
        }
    }
}

impl Actor for UpnpClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.bind_udp(SSDP_PORT).expect("ssdp port free");
        let search = MSearch::new(self.service_type.clone());
        let wire = ssdp::encode(&SsdpMessage::MSearch(search));
        self.sent_at = Some(ctx.now());
        ctx.udp_send(SSDP_PORT, SimAddr::new(SSDP_GROUP, SSDP_PORT), wire);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        if !matches!(self.phase, ClientPhase::WaitingSsdp) {
            return;
        }
        let Ok(SsdpMessage::Response(response)) = ssdp::decode(&datagram.payload) else {
            return;
        };
        let think = self.calibration.upnp_client_think.sample(ctx);
        self.phase = ClientPhase::Thinking { location: response.location };
        ctx.set_timer(think, TAG_CLIENT_THINK);
    }

    fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Connected { conn, peer } => {
                if let ClientPhase::WaitingHttp = self.phase {
                    let path = "/desc.xml";
                    let get = HttpGet::new(path, format!("{}:{}", peer.host, peer.port));
                    if let Err(err) = ctx.tcp_send(conn, http::encode(&HttpMessage::Get(get))) {
                        ctx.trace(format!("upnp client: GET failed: {err}"));
                    }
                }
            }
            TcpEvent::Data { payload, .. } => {
                if !matches!(self.phase, ClientPhase::WaitingHttp) {
                    return;
                }
                let Ok(HttpMessage::Ok(ok)) = http::decode(&payload) else {
                    return;
                };
                // Extract the URLBase element like a real control point.
                let url = ok
                    .body
                    .split_once("<URLBase>")
                    .and_then(|(_, rest)| rest.split_once("</URLBase>"))
                    .map(|(base, _)| base.trim().to_owned())
                    .unwrap_or_default();
                let overhead = self.calibration.upnp_client_overhead.sample(ctx);
                self.phase = ClientPhase::Draining { url };
                ctx.set_timer(overhead, TAG_CLIENT_DONE);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            TAG_CLIENT_THINK => {
                if let ClientPhase::Thinking { location } =
                    std::mem::replace(&mut self.phase, ClientPhase::WaitingHttp)
                {
                    let (host, port) = parse_location(&location);
                    match ctx.tcp_connect(SimAddr::new(host, port)) {
                        Ok(_) => {}
                        Err(err) => {
                            ctx.trace(format!("upnp client: connect failed: {err}"));
                            self.phase = ClientPhase::Done;
                        }
                    }
                }
            }
            TAG_CLIENT_DONE => {
                if let ClientPhase::Draining { url } =
                    std::mem::replace(&mut self.phase, ClientPhase::Done)
                {
                    if let Some(sent_at) = self.sent_at.take() {
                        self.probe.record(url, ctx.now().since(sent_at), ctx.now());
                    }
                }
            }
            _ => {}
        }
    }
}

/// Splits `http://host:port/path` into (host, port).
fn parse_location(location: &str) -> (String, u16) {
    let rest = location.strip_prefix("http://").unwrap_or(location);
    let authority = rest.split('/').next().unwrap_or(rest);
    match authority.rsplit_once(':') {
        Some((host, port)) => (host.to_owned(), port.parse().unwrap_or(80)),
        None => (authority.to_owned(), 80),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::testing::peak_slots;
    use starlink_net::SimNet;

    #[test]
    fn pending_tables_never_exceed_the_requests_in_flight() {
        let device = UpnpDevice::new("urn:x:printer:1", "10.0.0.3", Calibration::fast());
        let client = |probe| {
            Box::new(UpnpClient::new("urn:x:printer:1", Calibration::fast(), probe))
                as Box<dyn Actor>
        };
        let slots = |d: &UpnpDevice| d.pending_searches.capacity().max(d.pending_gets.capacity());
        let (peak, answered) = peak_slots(device, slots, client, 4, 5);
        assert_eq!(answered, 20, "every wave was answered");
        assert_eq!(peak, 4, "answered slots were reused across waves");
    }

    #[test]
    fn native_upnp_discovery_roundtrip() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(41);
        sim.add_actor(
            "10.0.0.3",
            UpnpDevice::new("urn:x:printer:1", "10.0.0.3", Calibration::fast()),
        );
        sim.add_actor(
            "10.0.0.1",
            UpnpClient::new("urn:x:printer:1", Calibration::fast(), probe.clone()),
        );
        sim.run_until_idle();
        let result = probe.first().expect("discovery completed");
        assert_eq!(result.url, "http://10.0.0.3:5000");
    }

    #[test]
    fn device_ignores_other_service_types() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(42);
        sim.add_actor(
            "10.0.0.3",
            UpnpDevice::new("urn:x:scanner:1", "10.0.0.3", Calibration::fast()),
        );
        sim.add_actor(
            "10.0.0.1",
            UpnpClient::new("urn:x:printer:1", Calibration::fast(), probe.clone()),
        );
        sim.run_until_idle();
        assert!(probe.is_empty());
    }

    #[test]
    fn device_answers_ssdp_all() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(43);
        sim.add_actor(
            "10.0.0.3",
            UpnpDevice::new("urn:x:printer:1", "10.0.0.3", Calibration::fast()),
        );
        sim.add_actor("10.0.0.1", UpnpClient::new("ssdp:all", Calibration::fast(), probe.clone()));
        sim.run_until_idle();
        assert_eq!(probe.len(), 1);
    }

    #[test]
    fn native_response_time_matches_calibration() {
        let probe = DiscoveryProbe::new();
        let mut sim = SimNet::new(44);
        sim.add_actor(
            "10.0.0.3",
            UpnpDevice::new("urn:x:printer:1", "10.0.0.3", Calibration::paper()),
        );
        sim.add_actor(
            "10.0.0.1",
            UpnpClient::new("urn:x:printer:1", Calibration::paper(), probe.clone()),
        );
        sim.run_until_idle();
        let elapsed = probe.first().unwrap().elapsed.as_millis();
        // Fig. 12(a): UPnP 945–1079 ms.
        assert!((930..=1_090).contains(&elapsed), "elapsed {elapsed}ms");
    }

    #[test]
    fn parse_location_variants() {
        assert_eq!(parse_location("http://10.0.0.3:5000/desc.xml"), ("10.0.0.3".into(), 5000));
        assert_eq!(parse_location("http://h/desc.xml"), ("h".into(), 80));
    }
}
