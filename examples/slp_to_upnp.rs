//! Case study §V-B: **SLP to UPnP** — the paper's hardest case, with
//! "heterogeneity of the protocol messages and the behaviour message
//! sequence": SLP is binary request/response; UPnP needs an SSDP search
//! *and* an HTTP description fetch (the Fig. 4 merged automaton).
//!
//! Run with `cargo run --example slp_to_upnp`.

use starlink::core::Starlink;
use starlink::net::SimNet;
use starlink::protocols::{bridges, slp, upnp, Calibration, DiscoveryProbe};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Seven models are loaded for this case (§V-B): the three MDLs, the
    // three coloured automata, and the merged automaton — here the MDLs
    // load from their XML documents and the automata come embedded in the
    // merged model.
    let mut framework = Starlink::new();
    bridges::load_all_mdls(&mut framework)?;

    let merged = bridges::slp_to_upnp();
    println!("merged automaton '{}' with parts:", merged.name());
    for part in merged.parts() {
        println!(
            "  {} — {} states, colour {}",
            part.protocol(),
            part.states().len(),
            part.colors()[0]
        );
    }
    let report = merged.check_merge();
    println!(
        "merge check: mergeable={} (weak={}, strong={})",
        report.is_mergeable(),
        report.weakly_merged,
        report.strongly_merged
    );

    let (engine, stats) = framework.deploy(merged)?;

    let probe = DiscoveryProbe::new();
    let mut sim = SimNet::new(2026);
    sim.add_actor("10.0.0.2", engine);
    sim.add_actor(
        "10.0.0.3",
        upnp::UpnpDevice::new(
            "urn:schemas-upnp-org:service:printer:1",
            "10.0.0.3",
            Calibration::paper(),
        ),
    );
    sim.add_actor("10.0.0.1", slp::SlpClient::new("service:printer", probe.clone()));
    sim.run_until_idle();

    // Show what crossed the wire.
    println!("\nnetwork trace:");
    for entry in sim.trace() {
        println!("  [{}] {}", entry.at, entry.event);
    }

    let result = probe.first().expect("SLP client was answered");
    println!("\nSLP client received URL {:?} after {}", result.url, result.elapsed);
    println!(
        "bridge translation time: {} (paper case 1 median: 337 ms)",
        stats.translation_times()[0]
    );
    assert_eq!(result.url, "http://10.0.0.3:5000");
    Ok(())
}
