//! The live control plane's shard-side half: a host actor multiplexing
//! **coexisting versions** of one bridge on a single simulated host.
//!
//! A [`ShardedBridge`](crate::ShardedBridge) deploys one [`EngineHost`]
//! per shard instead of a bare engine. The host owns a stack of
//! [`BridgeEngine`]s — the *versions* — and implements drain-then-swap:
//!
//! * **fresh traffic** routes to the newest non-draining version (the
//!   *active* one);
//! * **in-flight traffic** — retransmissions, legacy replies, accepted
//!   connections, stream data, timers — routes to whichever version
//!   owns the session, via the engine's ownership probes, so an
//!   exchange started on v1 finishes on v1 even while v2 serves;
//! * **reaping** — a draining version whose live-session count reaches
//!   zero is dropped (its [`BridgeStats`](crate::BridgeStats) ledger is
//!   frozen as retired, never reset), after any event that could have
//!   closed its last session.
//!
//! Commands arrive as [`BridgeCommand`] payloads over the simulator's
//! out-of-band control channel (`SimNet::deliver_control`), which the
//! sharded runtime feeds from its ordinary batch queues — so a swap is
//! serialized against traffic exactly like any other input, per shard.

use crate::engine::BridgeEngine;
use starlink_net::{Actor, Context, Datagram, TcpEvent, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Timer tags are namespaced per hosted version (`version << TAG_SHIFT`)
/// so two engines sharing one simulated host can never collide in the
/// host's timer space.
const TAG_SHIFT: u32 = 40;

/// A control command addressed to one shard's [`EngineHost`].
///
/// The engine it carries was built and gated (deployment checks) on the
/// control-plane side; the host only installs it.
#[derive(Debug)]
pub enum BridgeCommand {
    /// Install `engine` as version `version` and make it the active
    /// target for fresh sessions. Existing versions keep serving their
    /// in-flight sessions.
    Deploy {
        /// Monotonic version number (unique per host; `< 2^24`).
        version: u64,
        /// The gated engine to install.
        engine: BridgeEngine,
    },
    /// Mark every non-draining version as draining and install `engine`
    /// as the new active version — the atomic drain-then-swap.
    Swap {
        /// Version number of the replacement.
        version: u64,
        /// The gated engine to install.
        engine: BridgeEngine,
    },
    /// Mark version `version` as draining without a replacement. With
    /// no active version left, fresh traffic is dropped (and counted as
    /// unrouted) until the next deploy.
    Undeploy {
        /// The version to retire.
        version: u64,
    },
}

/// One hosted engine version.
struct HostedVersion {
    version: u64,
    engine: BridgeEngine,
    draining: bool,
}

/// The multi-version bridge host: see the module docs.
pub struct EngineHost {
    /// Deploy order; the active version is the newest non-draining one.
    versions: Vec<HostedVersion>,
    /// Fresh traffic arriving with no active version, shared across
    /// shards so the driver can read one fleet-wide count.
    unrouted: Arc<AtomicU64>,
}

impl std::fmt::Debug for EngineHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHost")
            .field("versions", &self.versions.iter().map(|v| v.version).collect::<Vec<_>>())
            .finish()
    }
}

impl EngineHost {
    /// Hosts `engine` as the initial active version.
    pub fn new(version: u64, mut engine: BridgeEngine, unrouted: Arc<AtomicU64>) -> Self {
        engine.set_timer_tag_base(version << TAG_SHIFT);
        EngineHost { versions: vec![HostedVersion { version, engine, draining: false }], unrouted }
    }

    fn active_index(&self) -> Option<usize> {
        self.versions.iter().rposition(|v| !v.draining)
    }

    /// Installs a freshly deployed version: namespace its timers, run
    /// its bindings (idempotent on an already-bound host) and make it
    /// the newest — therefore active — version.
    fn install(&mut self, ctx: &mut Context<'_>, version: u64, mut engine: BridgeEngine) {
        engine.set_timer_tag_base(version << TAG_SHIFT);
        let mut hosted = HostedVersion { version, engine, draining: false };
        hosted.engine.on_start(ctx);
        ctx.record(TraceEvent::ControlDeployed {
            name: hosted.engine.automaton_name().to_owned(),
            version,
            coexisting: self.versions.len() + 1,
        });
        self.versions.push(hosted);
    }

    /// Marks one version as draining: its stats flip to draining and it
    /// stops receiving fresh sessions from this host.
    fn drain(ctx: &mut Context<'_>, hosted: &mut HostedVersion) {
        if hosted.draining {
            return;
        }
        hosted.draining = true;
        hosted.engine.stats().record_draining();
        ctx.record(TraceEvent::ControlDraining {
            name: hosted.engine.automaton_name().to_owned(),
            version: hosted.version,
            in_flight: hosted.engine.live_sessions(),
        });
    }

    /// Reaps every draining version that has drained to zero live
    /// sessions. Called after each event — the moment a version's last
    /// session closes, it is gone.
    fn reap_idle(&mut self, ctx: &mut Context<'_>) {
        let mut index = 0;
        while index < self.versions.len() {
            let hosted = &self.versions[index];
            if hosted.draining && hosted.engine.live_sessions() == 0 {
                let hosted = self.versions.remove(index);
                hosted.engine.stats().record_retired();
                ctx.record(TraceEvent::ControlReaped {
                    name: hosted.engine.automaton_name().to_owned(),
                    version: hosted.version,
                });
            } else {
                index += 1;
            }
        }
    }

    /// Counts fresh traffic arriving with no active version to take it.
    fn record_unrouted(&self, ctx: &mut Context<'_>, what: &'static str) {
        self.unrouted.fetch_add(1, Ordering::Relaxed);
        ctx.record(TraceEvent::ControlUnrouted { what });
    }
}

impl Actor for EngineHost {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for hosted in &mut self.versions {
            hosted.engine.on_start(ctx);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, datagram: Datagram) {
        // In-flight first: the oldest version owning the datagram's
        // session claims it, so a drained exchange can never leak onto
        // the new version (no cross-version delivery).
        let owner = self
            .versions
            .iter_mut()
            .position(|v| v.engine.owns_datagram(&datagram))
            .or_else(|| self.active_index());
        match owner {
            Some(index) => self.versions[index].engine.on_datagram(ctx, datagram),
            None => self.record_unrouted(ctx, "datagram"),
        }
        self.reap_idle(ctx);
    }

    fn on_tcp(&mut self, ctx: &mut Context<'_>, event: TcpEvent) {
        let owner = match &event {
            // A fresh accept pairs with the oldest waiting session
            // across versions (mirroring the engine's own oldest-first
            // matching); unmatched peers originate on the active one.
            TcpEvent::Accepted { peer, local_port, .. } => self
                .versions
                .iter()
                .position(|v| v.engine.wants_accept(*local_port, peer))
                .or_else(|| self.active_index()),
            // Established connections already belong to one version.
            TcpEvent::Connected { conn, .. }
            | TcpEvent::Data { conn, .. }
            | TcpEvent::Closed { conn } => {
                self.versions.iter().position(|v| v.engine.owns_conn(*conn))
            }
        };
        match owner {
            Some(index) => self.versions[index].engine.on_tcp(ctx, event),
            // An orphaned Connected/Data/Closed (its version already
            // reaped, or a stranger's accept with no active version) is
            // dropped; only fresh accepts count as unrouted traffic.
            None => {
                if matches!(event, TcpEvent::Accepted { .. }) {
                    self.record_unrouted(ctx, "tcp accept");
                }
            }
        }
        self.reap_idle(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        // Tags are version-namespaced *and* checked against the owning
        // engine's pending-timer tables, so a stale tag (version reaped
        // between arming and firing) falls through harmlessly.
        if let Some(hosted) = self.versions.iter_mut().find(|v| v.engine.owns_timer(tag)) {
            hosted.engine.on_timer(ctx, tag);
        }
        self.reap_idle(ctx);
    }

    fn on_control(&mut self, ctx: &mut Context<'_>, payload: Box<dyn std::any::Any + Send>) {
        let command = match payload.downcast::<BridgeCommand>() {
            Ok(command) => *command,
            Err(_) => {
                ctx.record(TraceEvent::ControlUnknownPayload);
                return;
            }
        };
        match command {
            BridgeCommand::Deploy { version, engine } => {
                self.install(ctx, version, engine);
            }
            BridgeCommand::Swap { version, engine } => {
                for hosted in &mut self.versions {
                    Self::drain(ctx, hosted);
                }
                self.install(ctx, version, engine);
            }
            BridgeCommand::Undeploy { version } => {
                match self.versions.iter_mut().find(|v| v.version == version) {
                    Some(hosted) => Self::drain(ctx, hosted),
                    None => {
                        ctx.record(TraceEvent::ControlUnknownVersion { version });
                    }
                }
            }
        }
        self.reap_idle(ctx);
    }
}
