//! Observability export: one [`MetricsHub`] aggregates every versioned
//! deployment's counters into a deterministic Prometheus-style text
//! page, and keeps a bounded log of typed simulator trace events that
//! it renders as JSON lines on request.
//!
//! The hub is the read side of the control plane. Deployment handles
//! ([`DeployedBridge`]) share their stats with the hub, so the page
//! reflects both versions' counters *during* a drain — the old
//! version's ledger keeps its final values after retirement (a swap
//! never resets or double-counts a counter).
//!
//! Serving is the transport's job: [`MetricsHub::render_fn`] plugs into
//! [`starlink_net::MetricsServer`], which a
//! [`ShardedGateway`](crate::ShardedGateway) wires up via
//! `serve_metrics` — `GET /metrics` for the counter page, `GET /trace`
//! for the event log.

use crate::gateway::GatewayStats;
use crate::registry::DeployedBridge;
use starlink_net::{RenderFn, TraceEntry, TraceKind, TRACE_CAP};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

type GatewayReader = Box<dyn Fn() -> GatewayStats + Send + Sync>;

#[derive(Default)]
struct HubInner {
    /// Registered deployments, deduped by version; rendering sorts by
    /// (case, version) so the page is deterministic.
    deployments: Vec<DeployedBridge>,
    /// Gateway counter reader, installed by `serve_metrics`.
    gateway: Option<GatewayReader>,
    /// The fleet-wide unrouted-traffic counter, shared with the shards.
    unrouted: Option<Arc<AtomicU64>>,
    /// Bounded event log: (source, entry), oldest first, rendered to
    /// JSON lines only when `/trace` is read.
    trace: VecDeque<(Arc<str>, TraceEntry)>,
    /// Events lost: dropped off the front of the bounded log, or
    /// overwritten in a shard's ring before they could be streamed.
    trace_dropped: u64,
    /// Per-kind event counts (in [`TraceKind::ALL`] order); count every
    /// event ever seen, not just the retained window.
    trace_counts: [u64; TraceKind::ALL.len()],
}

/// The aggregation point for the metrics/trace export surface: see the
/// module docs. Clone freely — clones share state.
#[derive(Clone, Default)]
pub struct MetricsHub {
    inner: Arc<Mutex<HubInner>>,
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricsHub")
            .field("deployments", &inner.deployments.len())
            .field("trace", &inner.trace.len())
            .finish()
    }
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    fn lock(&self) -> MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers a deployment for rendering. Stats are shared with the
    /// handle, so the page tracks the version through serving, draining
    /// and retirement. Re-registering a version is a no-op.
    pub fn register(&self, deployment: &DeployedBridge) {
        let mut inner = self.lock();
        if inner.deployments.iter().any(|d| d.version() == deployment.version()) {
            return;
        }
        inner.deployments.push(deployment.clone());
    }

    /// Installs the gateway counter reader (wired by
    /// `ShardedGateway::serve_metrics`).
    pub fn set_gateway(&self, read: impl Fn() -> GatewayStats + Send + Sync + 'static) {
        self.lock().gateway = Some(Box::new(read));
    }

    /// Shares the fleet-wide unrouted-traffic counter with the hub.
    pub fn set_unrouted(&self, counter: Arc<AtomicU64>) {
        self.lock().unrouted = Some(counter);
    }

    /// Appends one simulator trace entry to the bounded log, counted
    /// under the kind its variant names. `source` names the emitting
    /// shard/host.
    pub fn record_trace(&self, source: &str, entry: &TraceEntry) {
        self.record_stream(&Arc::from(source), 0, std::iter::once(entry));
    }

    /// Appends a shard's fresh entries in one lock, after `lost` events
    /// its ring overwrote before they could be streamed.
    pub(crate) fn record_stream<'a>(
        &self,
        source: &Arc<str>,
        lost: u64,
        entries: impl IntoIterator<Item = &'a TraceEntry>,
    ) {
        let mut inner = self.lock();
        inner.trace_dropped += lost;
        for entry in entries {
            inner.trace_counts[entry.event.kind() as usize] += 1;
            if inner.trace.len() == TRACE_CAP {
                inner.trace.pop_front();
                inner.trace_dropped += 1;
            }
            inner.trace.push_back((source.clone(), entry.clone()));
        }
    }

    /// The retained event log as JSON lines, oldest first: `at_us`,
    /// `source`, `kind`, `event` (the rendered text) and, for events of
    /// a bridge session, `session`.
    pub fn trace_lines(&self) -> Vec<String> {
        let inner = self.lock();
        inner
            .trace
            .iter()
            .map(|(source, entry)| {
                let mut line = format!(
                    r#"{{"at_us":{},"source":"{}","kind":"{}","event":"{}""#,
                    entry.at.as_micros(),
                    escape_json(source),
                    entry.event.kind().name(),
                    escape_json(&entry.event.to_string())
                );
                if let Some(key) = entry.event.session() {
                    let _ = write!(line, r#","session":"{}""#, escape_json(&key.to_string()));
                }
                line.push('}');
                line
            })
            .collect()
    }

    /// Renders the Prometheus-style counter page. Deterministic: same
    /// counter state, same page, byte for byte.
    pub fn render(&self) -> String {
        let inner = self.lock();
        let mut deployments: Vec<&DeployedBridge> = inner.deployments.iter().collect();
        deployments.sort_by(|a, b| a.case().cmp(b.case()).then(a.version().cmp(&b.version())));

        let mut page = String::new();
        let out = &mut page;
        let _ = writeln!(out, "# HELP starlink_up The export surface is serving.");
        let _ = writeln!(out, "# TYPE starlink_up gauge");
        let _ = writeln!(out, "starlink_up 1");
        let _ = writeln!(out, "# HELP starlink_deployments Versioned deployments registered.");
        let _ = writeln!(out, "# TYPE starlink_deployments gauge");
        let _ = writeln!(out, "starlink_deployments {}", deployments.len());

        family(
            out,
            "starlink_deployment_state",
            "gauge",
            "Lifecycle state of each versioned deployment (1 = current state).",
        );
        for d in &deployments {
            let _ = writeln!(
                out,
                "starlink_deployment_state{{{},state=\"{}\"}} 1",
                labels(d),
                d.state()
            );
        }
        family(out, "starlink_deployment_shards", "gauge", "Shards per deployment, by state.");
        for d in &deployments {
            let _ =
                writeln!(out, "starlink_deployment_shards{{{}}} {}", labels(d), d.shard_count());
            let _ = writeln!(
                out,
                "starlink_deployment_shards_draining{{{}}} {}",
                labels(d),
                d.stats().draining_shards()
            );
            let _ = writeln!(
                out,
                "starlink_deployment_shards_retired{{{}}} {}",
                labels(d),
                d.stats().retired_shards()
            );
        }
        family(
            out,
            "starlink_sessions_total",
            "counter",
            "Sessions per deployment by outcome; started == completed + failed + expired + active.",
        );
        for d in &deployments {
            let c = d.stats().concurrency_sum();
            for (outcome, value) in [
                ("started", c.started),
                ("completed", c.completed),
                ("failed", c.failed),
                ("expired", c.expired),
            ] {
                let _ = writeln!(
                    out,
                    "starlink_sessions_total{{{},outcome=\"{outcome}\"}} {value}",
                    labels(d)
                );
            }
        }
        family(
            out,
            "starlink_sessions_active",
            "gauge",
            "Sessions live right now, per deployment.",
        );
        for d in &deployments {
            let c = d.stats().concurrency_sum();
            let _ = writeln!(out, "starlink_sessions_active{{{}}} {}", labels(d), c.active);
            let _ =
                writeln!(out, "starlink_sessions_peak_active{{{}}} {}", labels(d), c.peak_active);
        }
        family(
            out,
            "starlink_translation_micros",
            "counter",
            "Sum and count of end-to-end translation times, per deployment.",
        );
        for d in &deployments {
            let stats = d.stats();
            let (sum, count) = (stats.translation_micros(), stats.session_count());
            let _ = writeln!(out, "starlink_translation_micros_sum{{{}}} {sum}", labels(d));
            let _ = writeln!(out, "starlink_translation_micros_count{{{}}} {count}", labels(d));
        }
        family(
            out,
            "starlink_cache_events_total",
            "counter",
            "Answer-cache events per deployment (fused bridges only).",
        );
        for d in &deployments {
            let cache = d.stats().cache();
            for (event, value) in [
                ("hit", cache.hits),
                ("miss", cache.misses),
                ("insertion", cache.insertions),
                ("expiration", cache.expirations),
            ] {
                let _ = writeln!(
                    out,
                    "starlink_cache_events_total{{{},event=\"{event}\"}} {value}",
                    labels(d)
                );
            }
        }
        family(
            out,
            "starlink_store_forward_total",
            "counter",
            "Store-and-forward leg events per deployment (delay-tolerant sessions only).",
        );
        for d in &deployments {
            let sf = d.stats().store_forward();
            for (event, value) in [
                ("parked", sf.parked),
                ("replayed", sf.replayed),
                ("overflow", sf.overflow),
                ("abandoned", sf.abandoned),
            ] {
                let _ = writeln!(
                    out,
                    "starlink_store_forward_total{{{},event=\"{event}\"}} {value}",
                    labels(d)
                );
            }
        }
        family(
            out,
            "starlink_engine_errors_total",
            "counter",
            "Messages the engines dropped (parse/translate failures), per deployment.",
        );
        for d in &deployments {
            let _ = writeln!(
                out,
                "starlink_engine_errors_total{{{}}} {}",
                labels(d),
                d.stats().error_count()
            );
        }
        if let Some(counter) = &inner.unrouted {
            family(
                out,
                "starlink_unrouted_total",
                "counter",
                "Fresh traffic dropped because no active version would take it.",
            );
            let _ = writeln!(out, "starlink_unrouted_total {}", counter.load(Ordering::Relaxed));
        }
        if let Some(read) = &inner.gateway {
            let g = read();
            family(
                out,
                "starlink_gateway_datagrams_total",
                "counter",
                "Datagrams crossing the gateway's real sockets.",
            );
            let _ = writeln!(
                out,
                "starlink_gateway_datagrams_total{{direction=\"in\"}} {}",
                g.datagrams_in
            );
            let _ = writeln!(
                out,
                "starlink_gateway_datagrams_total{{direction=\"out\"}} {}",
                g.datagrams_out
            );
            family(
                out,
                "starlink_gateway_submits_total",
                "counter",
                "Batches the gateway submitted to shard queues.",
            );
            let _ = writeln!(out, "starlink_gateway_submits_total {}", g.submits);
            family(
                out,
                "starlink_gateway_send_errors_total",
                "counter",
                "Egress sends that failed (batch finished anyway).",
            );
            let _ = writeln!(out, "starlink_gateway_send_errors_total {}", g.send_errors);
        }
        family(
            out,
            "starlink_trace_events_total",
            "counter",
            "Classified simulator trace events seen by the hub.",
        );
        for (kind, count) in TraceKind::ALL.iter().zip(inner.trace_counts) {
            let kind = kind.name();
            let _ = writeln!(out, "starlink_trace_events_total{{kind=\"{kind}\"}} {count}");
        }
        let _ = writeln!(out, "starlink_trace_events_dropped {}", inner.trace_dropped);
        page
    }

    /// Routes a request path to a page: `/metrics` renders the counter
    /// page, `/trace` the JSON-lines event log; anything else is a 404.
    pub fn render_page(&self, path: &str) -> Option<String> {
        match path {
            "/metrics" => Some(self.render()),
            "/trace" => {
                let mut body = self.trace_lines().join("\n");
                body.push('\n');
                Some(body)
            }
            _ => None,
        }
    }

    /// The hub as a [`starlink_net::MetricsServer`] render callback.
    pub fn render_fn(&self) -> RenderFn {
        let hub = self.clone();
        Arc::new(move |path| hub.render_page(path))
    }
}

/// Emits one family's `# HELP` / `# TYPE` preamble.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// The shared `case`/`version` label pair of one deployment.
fn labels(deployment: &DeployedBridge) -> String {
    format!(r#"case="{}",version="{}""#, escape_json(deployment.case()), deployment.version())
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn escape_json(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(escaped, "\\u{:04x}", c as u32);
            }
            c => escaped.push(c),
        }
    }
    escaped
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_net::SimTime;

    #[test]
    fn empty_hub_renders_a_stable_header() {
        let hub = MetricsHub::new();
        let page = hub.render();
        assert!(page.starts_with("# HELP starlink_up"));
        assert!(page.contains("starlink_up 1\n"));
        assert!(page.contains("starlink_deployments 0\n"));
        assert_eq!(hub.render(), page, "rendering is deterministic");
    }

    #[test]
    fn pages_route_and_404() {
        let hub = MetricsHub::new();
        assert!(hub.render_page("/metrics").is_some());
        assert!(hub.render_page("/trace").is_some());
        assert!(hub.render_page("/nope").is_none());
        let render = hub.render_fn();
        assert!(render("/metrics").is_some());
    }

    #[test]
    fn trace_log_classifies_escapes_and_bounds() {
        use starlink_net::{LinkEnd, LinkFate, SessionKey, SimAddr, TraceEvent};
        let hub = MetricsHub::new();
        let entry = |event: TraceEvent| TraceEntry { at: SimTime::from_micros(7), event };
        let (a, b) = (SimAddr::new("a", 1), SimAddr::new("b", 2));
        let to = LinkEnd { to: b.clone(), member: None };
        hub.record_trace(
            "shard0",
            &entry(TraceEvent::Link { fate: LinkFate::Drop, from: a.clone(), to }),
        );
        hub.record_trace(
            "shard0",
            &entry(TraceEvent::ControlDeployed { name: "x".into(), version: 2, coexisting: 2 }),
        );
        hub.record_trace("shard1", &entry(TraceEvent::Udp { from: a, to: b, bytes: 12 }));
        hub.record_trace("shard1", &entry(TraceEvent::Note("said \"hi\"\n".into())));
        let key = SessionKey::Correlated(0, 0x2a);
        hub.record_trace("shard1", &entry(TraceEvent::SessionFailed { key }));
        let lines = hub.trace_lines();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains(r#""kind":"impairment","event":"chaos drop a:1 -> b:2""#));
        assert!(lines[1].contains(r#""kind":"control""#));
        assert!(lines[2].contains(r#""kind":"wire""#));
        assert!(lines[3].contains(r#""kind":"event","event":"said \"hi\"\n""#));
        assert!(lines[4].ends_with(r#""kind":"session","event":"bridge session part#0 id 0x2a failed and was torn down","session":"part#0 id 0x2a"}"#), "{}", lines[4]);
        for _ in 0..TRACE_CAP {
            hub.record_trace("s", &entry(TraceEvent::Note("filler".into())));
        }
        assert_eq!(hub.trace_lines().len(), TRACE_CAP);
        let page = hub.render();
        assert!(page.contains("starlink_trace_events_dropped 5\n"), "{page}");
        assert!(page.contains("starlink_trace_events_total{kind=\"impairment\"} 1\n"));

        // Events a shard's ring overwrote before streaming count as
        // dropped too.
        hub.record_stream(&Arc::from("s"), 3, std::iter::empty());
        assert!(hub.render().contains("starlink_trace_events_dropped 8\n"));
    }
}
