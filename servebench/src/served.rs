//! Set-up and tear-down of the served path: models loaded, the bridge
//! deployed through the checker gate, a one-shard `ShardedBridge`
//! behind a one-thread `ShardedGateway`, and a first verified lookup.

use crate::driver::{Driver, Expect, SpanNames};
use crate::procfs;
use crate::spans::Recorder;
use crate::workload::Workload;
use starlink_bench::{add_target_service, expected_discovery_url, BRIDGE};
use starlink_core::{
    BridgeEngine, GatewayConfig, ShardHandle, ShardedBridge, ShardedGateway, ShardedStats, Starlink,
};
use starlink_net::{LatencyModel, SimDuration, SimNet};
use starlink_protocols::bridges::{self, BridgeCase};
use starlink_protocols::{slp, Calibration};
use std::time::Instant;

const FIRST_REPLY: SpanNames = SpanNames {
    lookup: "setup.first_reply",
    send: "setup.first_reply.send",
    wait: "setup.first_reply.wait",
    recv: "setup.first_reply.recv",
};

/// Wall time of each set-up step, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Starlink::new` and `load_all_mdls`.
    pub load_ns: u64,
    /// `deploy_sharded`: checker gate and fusion probe.
    pub deploy_ns: u64,
    /// `ShardedBridge::launch` and `ShardedGateway::launch`.
    pub launch_ns: u64,
    /// The first lookup, from send to verified reply.
    pub first_reply_ns: u64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_ns(&self) -> u64 {
        self.load_ns + self.deploy_ns + self.launch_ns + self.first_reply_ns
    }
}

/// A live served deployment.
pub struct Served {
    /// The socket front; dropping it stops every thread it runs.
    pub gateway: ShardedGateway,
    /// The deployment's counters.
    pub stats: ShardedStats,
    /// The one shard's queue handle (for its backlog).
    pub shard: ShardHandle,
    /// The gateway's real loopback port for SLP.
    pub ingress: u16,
    /// Threads `ShardedBridge::launch` spawned (shard workers).
    pub shard_tids: Vec<u32>,
    /// Threads `ShardedGateway::launch` spawned (gateway threads).
    pub gateway_tids: Vec<u32>,
}

/// Loads every model into a fresh framework.
///
/// # Errors
///
/// Returns the loader's error as text.
pub fn load_framework() -> Result<Starlink, String> {
    let mut framework = Starlink::new();
    bridges::load_all_mdls(&mut framework).map_err(|e| format!("loading models: {e}"))?;
    Ok(framework)
}

/// Deploys `workload`'s bridge as `shards` engines and checks each runs
/// the path the workload is defined by.
///
/// # Errors
///
/// Returns the deploy error, or the fusion mismatch, as text.
pub fn deploy(
    framework: &Starlink,
    workload: Workload,
    shards: usize,
) -> Result<(Vec<BridgeEngine>, ShardedStats), String> {
    let case = workload.case();
    let (engines, stats) = framework
        .deploy_sharded(case.build(BRIDGE), workload.engine_config(), shards)
        .map_err(|e| format!("deploying case {}: {e}", case.number()))?;
    for engine in &engines {
        if engine.is_fused() != workload.expects_fused() {
            return Err(format!(
                "workload {} needs the {} path but case {} deployed {} ({})",
                workload.name(),
                if workload.expects_fused() { "fused" } else { "interpreted" },
                case.number(),
                if engine.is_fused() { "fused" } else { "interpreted" },
                engine.fused_reject_reason().unwrap_or_default()
            ));
        }
    }
    Ok((engines, stats))
}

/// What every shard's simulation hosts next to the engine: the case's
/// target service, with zero link latency and zero service delays, so
/// the run measures the program rather than modelled waits.
pub fn populate(case: BridgeCase) -> impl FnMut(usize, &mut SimNet) {
    move |_, sim| {
        sim.set_latency(LatencyModel::Fixed(SimDuration::ZERO));
        add_target_service(sim, case, Calibration::instant());
    }
}

/// One full set-up, timed step by step.
///
/// # Errors
///
/// Returns what failed: a load, deploy or launch error, a fusion
/// mismatch, a gateway not in `readiness` mode, or a first lookup
/// without a verified reply.
pub fn set_up(
    workload: Workload,
    seed: u64,
    driver: &mut Driver,
    rec: &mut Recorder,
) -> Result<(Served, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let parent = rec.open("setup", None, 0);

    let (start, span) = (Instant::now(), rec.stamp());
    let framework = load_framework()?;
    times.load_ns = start.elapsed().as_nanos() as u64;
    rec.record("setup.load_mdls", span, rec.stamp(), parent, 0);

    let (start, span) = (Instant::now(), rec.stamp());
    let (engines, stats) = deploy(&framework, workload, 1)?;
    times.deploy_ns = start.elapsed().as_nanos() as u64;
    rec.record("setup.deploy_sharded", span, rec.stamp(), parent, 0);

    let (start, span) = (Instant::now(), rec.stamp());
    let before = procfs::task_ids();
    let bridge = ShardedBridge::launch(seed, BRIDGE, engines, populate(workload.case()));
    let launched = procfs::task_ids();
    rec.record("setup.launch_bridge", span, rec.stamp(), parent, 0);
    let shard = bridge.handles().swap_remove(0);
    let span = rec.stamp();
    let config =
        GatewayConfig { udp_ports: vec![slp::SLP_PORT], threads: 1, ..GatewayConfig::default() };
    let gateway =
        ShardedGateway::launch(bridge, config).map_err(|e| format!("gateway launch: {e}"))?;
    let after = procfs::task_ids();
    times.launch_ns = start.elapsed().as_nanos() as u64;
    rec.record("setup.launch_gateway", span, rec.stamp(), parent, 0);
    if gateway.mode() != "readiness" {
        return Err(format!("gateway runs in {} mode, not readiness", gateway.mode()));
    }
    let ingress = gateway
        .ingress_real_port(0, slp::SLP_PORT)
        .ok_or_else(|| "gateway exposes no SLP port".to_owned())?;

    let start = Instant::now();
    let before_first = driver.tally();
    let expect = Expect::Answer(expected_discovery_url(workload.case()));
    driver
        .run(ingress, expect, 1, 1, rec, &FIRST_REPLY, None)
        .map_err(|e| format!("first lookup: {e}"))?;
    times.first_reply_ns = start.elapsed().as_nanos() as u64;
    if driver.tally().verified != before_first.verified + 1 {
        return Err(format!("first lookup got no verified reply: {:?}", driver.tally()));
    }
    rec.close(parent);

    let served = Served {
        gateway,
        stats,
        shard,
        ingress,
        shard_tids: procfs::spawned_between(&before, &launched),
        gateway_tids: procfs::spawned_between(&launched, &after),
    };
    Ok((served, times))
}
