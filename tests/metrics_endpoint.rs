//! The observability export surface, end to end: golden snapshots of
//! the rendered Prometheus-style metrics page (covering every stats
//! family plus per-version deployment state across a live
//! drain-then-swap), the JSON-lines trace page, a real HTTP round-trip
//! through [`MetricsServer`], and the stale-counter guarantee — a swap
//! never resets or double-counts a session ledger.
//!
//! Regenerate the snapshots after an intentional format change with:
//!
//! ```sh
//! GOLDEN_UPDATE=1 cargo test -q --test metrics_endpoint
//! ```

use starlink::core::{DeployState, MetricsHub};
use starlink::net::{
    LinkEnd, LinkFate, MetricsServer, SessionKey, SimAddr, SimDuration, SimTime, TraceEntry,
    TraceEvent,
};
use starlink::protocols::bridges::BridgeCase;
use starlink_bench::{run_sharded_case, ShardedRun, ShardedWorkload};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpStream};

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Compares `text` against the checked-in snapshot (or rewrites it
/// under `GOLDEN_UPDATE=1`).
fn assert_golden_text(name: &str, text: &str) {
    let path = fixture_path(name);
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let fixture = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); run GOLDEN_UPDATE=1 to create"));
    assert_eq!(
        text, fixture,
        "{name}: rendered page changed (intentional? regenerate with \
         GOLDEN_UPDATE=1 cargo test -q --test metrics_endpoint)"
    );
}

/// A deterministic drain-then-swap run: 8 SLP→Bonjour clients over 2
/// shards in waves of 2; once v1 has started 4 sessions, v2 deploys
/// through the registry gate and every shard swaps onto it.
fn swap_run() -> ShardedRun {
    let mut workload = ShardedWorkload::new(2, 8);
    workload.seed = 0x5EED;
    workload.wave = 2;
    workload.swap_at_client = 4;
    run_sharded_case(BridgeCase::SlpToBonjour, workload)
}

fn trace(at_us: u64, event: TraceEvent) -> TraceEntry {
    TraceEntry { at: SimTime::from_micros(at_us), event }
}

/// A fixed trace sample, one event per export kind except free-text
/// notes, so the golden pins the trace counter family and the
/// JSON-lines framing too.
fn trace_sample() -> [(&'static str, TraceEntry); 4] {
    let client = SimAddr::new("10.20.1.2", 41_000);
    let bridge = SimAddr::new("10.0.0.2", 427);
    let deployed =
        TraceEvent::ControlDeployed { name: "slp-to-bonjour".into(), version: 2, coexisting: 2 };
    let to = LinkEnd { to: bridge.clone(), member: None };
    let dropped = TraceEvent::Link { fate: LinkFate::Drop, from: client.clone(), to };
    let key = SessionKey::Correlated(0, 4);
    let completed = TraceEvent::SessionComplete { key, elapsed: SimDuration::from_micros(271_443) };
    let wire = TraceEvent::Udp { from: client, to: bridge, bytes: 39 };
    [
        ("shard0", trace(1_000, deployed)),
        ("shard0", trace(2_000, dropped)),
        ("shard1", trace(3_000, completed)),
        ("shard1", trace(4_000, wire)),
    ]
}

#[test]
fn metrics_page_across_a_drain_then_swap_is_golden() {
    let run = swap_run();
    let swap = run.swap.as_ref().expect("the workload swaps mid-run");
    assert_eq!(run.completed(), 8, "inert swap run completes every client");
    assert_eq!(swap.old.state(), DeployState::Retired);
    assert_eq!(swap.new.state(), DeployState::Serving);

    let hub = MetricsHub::new();
    hub.register(&swap.old);
    hub.register(&swap.new);
    for (source, entry) in trace_sample() {
        hub.record_trace(source, &entry);
    }

    assert_golden_text("metrics_page.txt", &hub.render());
    assert_golden_text(
        "trace_page.txt",
        &hub.render_page("/trace").expect("the trace page renders"),
    );
    assert!(hub.render_page("/nope").is_none(), "unknown paths 404");

    // The page is a pure function of the run: a second identical run
    // renders byte-identically (the golden is not a fluke of one run).
    let again = swap_run();
    let swap_again = again.swap.as_ref().expect("second run swaps too");
    let hub_again = MetricsHub::new();
    hub_again.register(&swap_again.old);
    hub_again.register(&swap_again.new);
    for (source, entry) in trace_sample() {
        hub_again.record_trace(source, &entry);
    }
    assert_eq!(hub.render(), hub_again.render(), "metrics page is deterministic");
}

#[test]
fn endpoint_serves_the_live_pages_over_http() {
    let run = swap_run();
    let swap = run.swap.as_ref().expect("the workload swaps mid-run");
    let hub = MetricsHub::new();
    hub.register(&swap.old);
    hub.register(&swap.new);
    let [(source, deployed), ..] = trace_sample();
    hub.record_trace(source, &deployed);
    let server = MetricsServer::serve(hub.render_fn()).expect("endpoint binds");

    let get = |path: &str| {
        let mut stream = TcpStream::connect((Ipv4Addr::LOCALHOST, server.port())).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").as_bytes())
            .expect("write request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    };

    let metrics = get("/metrics");
    assert!(metrics.starts_with("HTTP/1.0 200 OK"), "{metrics}");
    let body = metrics.split("\r\n\r\n").nth(1).expect("response has a body");
    assert_eq!(body, hub.render(), "the endpoint serves the hub's render verbatim");
    assert!(body.contains("starlink_deployment_state{"), "per-version state is exported");
    assert!(
        body.contains(r#"state="retired"} 1"#) && body.contains(r#"state="serving"} 1"#),
        "both sides of the swap are visible:\n{body}"
    );

    let trace_page = get("/trace");
    assert!(trace_page.starts_with("HTTP/1.0 200 OK"), "{trace_page}");
    assert!(trace_page.contains(r#""kind":"control""#), "{trace_page}");

    let missing = get("/there-is-no-such-page");
    assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
}

#[test]
fn a_swap_never_resets_or_double_counts_the_session_ledgers() {
    let run = swap_run();
    let swap = run.swap.as_ref().expect("the workload swaps mid-run");
    let old = swap.old.stats().concurrency();
    let new = swap.new.stats().concurrency();

    // No reset: every v1 counter is monotone across the swap instant.
    let pre = &swap.pre_swap;
    assert!(pre.started > 0, "v1 served before the swap");
    for (name, before, after) in [
        ("started", pre.started, old.started),
        ("completed", pre.completed, old.completed),
        ("failed", pre.failed, old.failed),
        ("expired", pre.expired, old.expired),
    ] {
        assert!(after >= before, "v1 {name} fell across the swap: {before} -> {after}");
    }

    // No double count, no loss: with an inert network every client runs
    // exactly one session, and the two ledgers partition them.
    assert_eq!(old.started + new.started, 8, "v1 {old:?} / v2 {new:?}");
    assert_eq!(old.completed + new.completed, 8, "v1 {old:?} / v2 {new:?}");
    assert!(new.started > 0, "post-swap sessions landed on v2");
    assert_eq!(old.failed + new.failed + old.expired + new.expired, 0);

    // Both ledgers quiescent, the retired one frozen at its final tally.
    assert_eq!(old.active, 0, "v1 retired with live sessions");
    assert_eq!(new.active, 0, "v2 wedged");
    assert_eq!(swap.old.state(), DeployState::Retired);
}
