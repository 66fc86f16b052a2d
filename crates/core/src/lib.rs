//! # starlink-core
//!
//! The **Starlink framework** (§IV of the paper): the runtime that loads
//! high-level models — MDL message descriptions, coloured automata,
//! merged automata with translation logic — and executes them as a
//! transparent protocol bridge in the network.
//!
//! Architecture (Fig. 6):
//!
//! * **Message composers and parsers** — generated at runtime from MDL
//!   specifications (provided by `starlink-mdl`, registered here);
//! * **Automata engine** ([`BridgeEngine`]) — executes the merged
//!   automaton: listens at receiving states, translates at bridge (δ)
//!   states, composes and sends at sending states;
//! * **Network engine** — provided by `starlink-net`; the engine consumes
//!   state *colours* to bind ports, join multicast groups, open TCP
//!   connections (pointed by `set_host` λ actions) and send with the
//!   right semantics.
//!
//! [`Starlink`] is the entry point: load models, [`Starlink::deploy`] a
//! bridge, drop the returned engine into a simulation, and read
//! translation times from [`BridgeStats`].
//!
//! ```
//! use starlink_core::Starlink;
//!
//! let mut starlink = Starlink::new();
//! starlink.load_mdl_xml(r#"
//!   <MDL protocol="Echo" kind="binary">
//!     <Header type="Echo"><Op>8</Op></Header>
//!     <Message type="Ping"><Rule>Op=1</Rule></Message>
//!   </MDL>"#)?;
//! assert_eq!(starlink.protocols(), vec!["Echo"]);
//! # Ok::<(), starlink_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod engine;
mod error;
mod framework;
mod fused;
mod gateway;
mod host;
mod metrics;
mod registry;
mod shard;
mod stats;
mod synthesis;

pub use check::{check_correlator, check_deployment, check_model_source, XML_LINT_CODE};
pub use engine::{
    BridgeEngine, EngineConfig, FieldCorrelator, SessionCorrelator, SessionKey, StoreForward,
    REASSEMBLY_CAP,
};
pub use error::{CoreError, ModelReport, Result};
pub use framework::Starlink;
pub use fused::FuseReject;
pub use gateway::{GatewayConfig, GatewayStats, ShardedGateway};
pub use host::{BridgeCommand, EngineHost};
pub use metrics::MetricsHub;
pub use registry::{
    deploy_commands, swap_commands, undeploy_commands, BridgeRegistry, DeployState, DeployedBridge,
    LoadedModel,
};
pub use shard::{ControlSlot, ShardHandle, ShardInput, ShardOutput, ShardedBridge};
pub use stats::{
    AtomicConcurrency, BridgeStats, CacheStats, ConcurrencyStats, SessionRecord, ShardedStats,
    StoreForwardStats, ERROR_WINDOW, SESSION_WINDOW,
};
pub use synthesis::{analyze_ontology, synthesize_bridge, Ontology};
