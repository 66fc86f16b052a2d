//! Served-lookup benchmark: native SLP lookups sent from a real
//! loopback socket into a one-shard, one-thread `ShardedGateway`, every
//! reply verified.
//!
//! A run launches the measured deployment, warms it up, then
//! alternates **light** segments (one lookup in flight) and **load**
//! segments ([`LOAD_DEPTH`] in flight), each a fixed number of lookups
//! sized from `--seconds`, with a round of full set-ups after each
//! pair. Untraced runs read `/proc` and the program's counters at
//! segment boundaries only. Traced runs add spans around
//! every call the benchmark makes into a layer, a traced copy of each
//! segment (for the tracing overhead) and the layer ladder
//! ([`ladder`]). See `README.md` for every metric.

pub mod client;
pub mod driver;
pub mod ladder;
pub mod procfs;
pub mod quantile;
pub mod served;
pub mod spans;
pub mod workload;

use driver::{Driver, Expect, Phase, SpanNames};
use procfs::{CpuTimes, ThreadSample};
use quantile::{median, Latencies};
use served::Served;
use spans::Recorder;
use starlink_bench::expected_discovery_url;
use starlink_core::{CacheStats, GatewayStats};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workload::Workload;

/// Lookups in flight during a load segment.
pub const LOAD_DEPTH: usize = 64;
/// Full set-ups per round; a round runs before measuring and after
/// each segment. On a shared host a single set-up stalls for 1–15 ms at
/// random when a vCPU is stolen; a round's fastest is the set-up's own
/// cost.
pub const SETUPS_PER_ROUND: usize = 8;
/// The percentile over rounds of each round's fastest set-up that
/// `setup_s` reports. The host also switches, for seconds at a time,
/// between a fast regime and one where everything runs up to 1.6×
/// slower; a run's median lands in either, the 10th percentile in the
/// fast one.
pub const SETUP_PERCENTILE: f64 = 10.0;
/// Lower bound on the share of `cached` lookups served from the cache;
/// below it the workload has silently turned into `fused`.
pub const MIN_CACHE_HIT_RATIO: f64 = 0.99;

const LIGHT: SpanNames = SpanNames {
    lookup: "light.lookup",
    send: "light.send",
    wait: "light.wait",
    recv: "light.recv",
};
const LOAD: SpanNames =
    SpanNames { lookup: "load.lookup", send: "load.send", wait: "load.wait", recv: "load.recv" };
const WARMUP: SpanNames = SpanNames {
    lookup: "warmup.lookup",
    send: "warmup.send",
    wait: "warmup.wait",
    recv: "warmup.recv",
};

/// End-to-end metrics on the result line of untraced runs: (name,
/// unit). Only these hold steady on a shared host; see [`REPORTED`].
pub const END_TO_END: [(&str, &str); 2] = [("rss_b_per_lookup", "B"), ("setup_s", "s")];

/// End-to-end metrics every run prints but keeps off its result line.
/// On a shared 2-vCPU host the same instructions run up to 1.6× slower
/// from one second to the next, so wall-clock throughput and latency,
/// and CPU time per lookup, moved by 10–25% between runs of identical
/// code: more than any bound a regression gate could use.
/// `fail_ratio` is on the result line as `failed`/`attempted`.
pub const REPORTED: [(&str, &str); 4] = [
    ("lookups_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("cpu_us_per_lookup", "us"),
    ("fail_ratio", "ratio"),
];

/// Per-layer metrics, printed by traced runs: (name, unit).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("gateway.lookups_per_s", "1/s"),
    ("gateway.p50_ms", "ms"),
    ("gateway.cpu_us_per_lookup", "us"),
    ("gateway.runq_wait_us_per_lookup", "us"),
    ("gateway.wakeups_per_lookup", "count"),
    ("gateway.datagrams_per_submit", "count"),
    ("gateway.socket_us", "us"),
    ("gateway.p99_ms", "ms"),
    ("gateway.samples", "count"),
    ("gateway.send_errors", "count"),
    ("gateway.launch_ms", "ms"),
    ("gateway.first_reply_ms", "ms"),
    ("reactor.echo_us", "us"),
    ("realnet.echo_us", "us"),
    ("shard.cpu_us_per_lookup", "us"),
    ("shard.runq_wait_us_per_lookup", "us"),
    ("shard.wakeups_per_lookup", "count"),
    ("shard.handoff_us", "us"),
    ("shard.backlog_max", "count"),
    ("sim.us_per_lookup", "us"),
    ("sim.trace_entries_per_lookup", "count"),
    ("sim.retained_b_per_lookup", "B"),
    ("engine.completed_ratio", "ratio"),
    ("engine.failed", "count"),
    ("engine.expired", "count"),
    ("fused.cache_hit_ratio", "ratio"),
    ("framework.load_ms", "ms"),
    ("framework.deploy_ms", "ms"),
    ("driver.cpu_us_per_lookup", "us"),
    ("machine.cores", "count"),
    ("machine.steal_pct_setup", "%"),
    ("machine.steal_pct_light", "%"),
    ("machine.steal_pct_load", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.tput_overhead_pct", "%"),
];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Permutes the XID order and seeds the shard's simulation.
    pub seed: u64,
    /// Measuring time the phases are sized for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for a missing, unknown or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds {s} out of range"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind it, where that is meaningful.
    pub samples: Option<u64>,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every reply seen was correct and every invariant held.
    pub correct: bool,
    /// Lookups attempted, over all phases.
    pub attempted: u64,
    /// Lookups without a verified reply.
    pub failed: u64,
    /// The metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Everything else measured, for the human-readable report.
    pub extra: Vec<Metric>,
    /// Run context lines (seed, machine, gateway mode).
    pub context: Vec<String>,
    /// Broken invariants and wrong replies.
    pub violations: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite float as JSON (never `NaN`/`inf`, which JSON lacks).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// How many lookups each phase runs: a fixed function of the workload
/// and `--seconds`, never of how fast this commit happens to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Load-depth lookups before measuring.
    pub warmup: u64,
    /// Light+load segment pairs.
    pub segments: usize,
    /// Lookups per light segment.
    pub light: u64,
    /// Lookups per load segment.
    pub load: u64,
    /// Ladder rounds (traced runs).
    pub rounds: usize,
    /// Lookups per rung per round (traced runs).
    pub rung: u64,
}

impl Plan {
    /// The plan for a run.
    pub fn new(workload: Workload, seconds: f64, trace: bool) -> Plan {
        let size = workload.sizing();
        let count = |share: f64, rate: f64, parts: usize| {
            ((seconds * share * rate / parts as f64) as u64).max(20)
        };
        // Traced runs spend their time on an untraced and a traced copy
        // of every segment plus the ladder.
        let (segments, light_share, load_share) =
            if trace { (8, 0.15, 0.2) } else { (32, 0.2, 0.7) };
        Plan {
            // Past the idle timeout, so the timer queue is steady.
            warmup: ((seconds * 0.05).max(1.5 * workload::IDLE_TIMEOUT_SECS as f64)
                * size.load_per_s) as u64,
            segments,
            light: count(light_share, size.light_per_s, segments),
            load: count(load_share, size.load_per_s, segments),
            rounds: 4,
            rung: count(0.05, size.rung_per_s, 4),
        }
    }
}

/// Counters read at a segment boundary.
struct Probe {
    at: Instant,
    threads: Vec<(u32, ThreadSample)>,
    cpu: CpuTimes,
    gateway: GatewayStats,
}

fn probe(served: &Served) -> Probe {
    Probe {
        at: Instant::now(),
        threads: procfs::all_threads(),
        cpu: procfs::cpu_times().unwrap_or_default(),
        gateway: served.gateway.stats(),
    }
}

/// What one segment measured, from the counters around it.
#[derive(Debug, Clone, Default)]
struct Segment {
    lookups: u64,
    seconds: f64,
    server: ThreadSample,
    gateway: ThreadSample,
    shard: ThreadSample,
    driver: ThreadSample,
    datagrams_in: u64,
    submits: u64,
}

impl Segment {
    fn rate(&self) -> f64 {
        self.lookups as f64 / self.seconds
    }
}

/// Runs one segment between two probes; folds its steal ticks into
/// `steal`.
#[allow(clippy::too_many_arguments)]
fn segment(
    driver: &mut Driver,
    served: &Served,
    expect: Expect,
    driver_tid: u32,
    depth: usize,
    count: u64,
    rec: &mut Recorder,
    names: &SpanNames,
    steal: &mut CpuTimes,
) -> Result<(Segment, Phase), String> {
    let backlog = rec.is_on().then_some(&served.shard);
    let before = probe(served);
    let phase = driver
        .run(served.ingress, expect, depth, count, rec, names, backlog)
        .map_err(|e| format!("driver: {e}"))?;
    let after = probe(served);
    steal.accumulate(&before.cpu, &after.cpu);
    let sum = |keep: &dyn Fn(u32) -> bool| procfs::sum_since(&before.threads, &after.threads, keep);
    let segment = Segment {
        lookups: phase.lookups,
        seconds: after.at.duration_since(before.at).as_secs_f64(),
        server: sum(&|tid| tid != driver_tid),
        gateway: sum(&|tid| served.gateway_tids.contains(&tid)),
        shard: sum(&|tid| served.shard_tids.contains(&tid)),
        driver: sum(&|tid| tid == driver_tid),
        datagrams_in: after.gateway.datagrams_in - before.gateway.datagrams_in,
        submits: after.gateway.submits - before.gateway.submits,
    };
    Ok((segment, phase))
}

/// Per-pass results of the segments (traced runs have an untraced and
/// a traced pass).
#[derive(Debug, Default)]
struct Pass {
    light: Vec<Segment>,
    load: Vec<Segment>,
    rtt: Latencies,
    backlog_max: u64,
    steal_light: CpuTimes,
    steal_load: CpuTimes,
}

impl Pass {
    /// `f` summed over the load segments, per load lookup.
    fn load_total(&self, f: impl Fn(&Segment) -> u64) -> f64 {
        let lookups: u64 = self.load.iter().map(|s| s.lookups).sum();
        self.load.iter().map(f).sum::<u64>() as f64 / lookups as f64
    }

    /// Median over load segments of verified lookups per second.
    fn lookups_per_s(&self) -> f64 {
        median(&self.load.iter().map(Segment::rate).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    }

    /// Median round trip over every light lookup, ms.
    fn p50_ms(&mut self) -> f64 {
        self.rtt.percentile(50.0).map_or(f64::NAN, |ns| ns as f64 / 1e6)
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// Returns what made the run impossible: a set-up step failing, a
/// fusion mismatch, a gateway outside `readiness` mode, or a socket or
/// thread error. Broken invariants and wrong replies are not errors:
/// they come back in [`Outcome::violations`].
pub fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let expect = Expect::Answer(expected_discovery_url(workload.case()));
    let plan = Plan::new(workload, args.seconds, args.trace);
    let driver_tid = procfs::current_tid().ok_or("cannot read /proc/thread-self")?;
    // Counted before pinning narrows this thread's CPU set.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (server_cpu, placement) = place_driver(driver_tid);
    let mut driver = Driver::new(args.seed).map_err(|e| format!("client socket: {e}"))?;
    let mut rec = Recorder::new(args.trace);
    let mut off = Recorder::new(false);
    let mut violations = Vec::new();

    // The measured deployment, its threads on the server's CPU.
    let (served, _) = served::set_up(workload, args.seed, &mut driver, &mut off)?;
    if let Some(cpu) = server_cpu {
        for &tid in served.gateway_tids.iter().chain(&served.shard_tids) {
            procfs::pin(tid, cpu).map_err(|e| format!("pinning the server: {e}"))?;
        }
    }
    let mode = served.gateway.mode();
    driver
        .run(served.ingress, expect, LOAD_DEPTH, plan.warmup, &mut off, &WARMUP, None)
        .map_err(|e| format!("warm-up: {e}"))?;

    // Set-up rounds run between segments, so set-up time is sampled
    // across the whole run; the first, before measuring starts, also
    // warms the allocator so later rounds leave the resident set alone.
    let mut setups = Vec::with_capacity(plan.segments + 1);
    let mut steal_setup = CpuTimes::default();
    setups.push(setup_round(workload, args.seed, &mut driver, &mut rec, &mut steal_setup)?);

    let cache_before = served.stats.cache();
    let rss_before = procfs::vm_rss_bytes().unwrap_or(0);
    let traced_passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut passes: Vec<Pass> = traced_passes.iter().map(|_| Pass::default()).collect();
    for _ in 0..plan.segments {
        for (pass, &traced) in passes.iter_mut().zip(traced_passes) {
            let rec = if traced { &mut rec } else { &mut off };
            let (light, phase) = segment(
                &mut driver,
                &served,
                expect,
                driver_tid,
                1,
                plan.light,
                rec,
                &LIGHT,
                &mut pass.steal_light,
            )?;
            pass.rtt.extend(&phase.rtt);
            pass.light.push(light);
            let (load, phase) = segment(
                &mut driver,
                &served,
                expect,
                driver_tid,
                LOAD_DEPTH,
                plan.load,
                rec,
                &LOAD,
                &mut pass.steal_load,
            )?;
            pass.backlog_max = pass.backlog_max.max(phase.backlog_max);
            pass.load.push(load);
        }
        setups.push(setup_round(workload, args.seed, &mut driver, &mut rec, &mut steal_setup)?);
    }
    let steal_setup = steal_setup.steal_pct_since(&CpuTimes::default());
    let setup_time = |f: &dyn Fn(&served::SetupTimes) -> u64| {
        let mut values: Vec<u64> = setups.iter().map(f).collect();
        values.sort_unstable();
        quantile::nearest_rank(&values, SETUP_PERCENTILE).map_or(f64::NAN, |ns| ns as f64)
    };
    let rss_growth = procfs::vm_rss_bytes().unwrap_or(0) as i64 - rss_before as i64;
    let cache = cache_delta(&cache_before, &served.stats.cache());
    check_cache(workload, &cache, &mut violations);

    let ladder = if args.trace {
        Some(ladder::run(
            workload,
            args.seed,
            &mut driver,
            &served,
            server_cpu,
            plan.rounds,
            plan.rung,
            &mut rec,
        )?)
    } else {
        None
    };

    settle(&served, &mut violations);
    let tally = driver.tally();
    if !tally.outputs_correct() {
        violations.push(format!("wrong replies: {tally:?}"));
    }

    let untraced = &mut passes[0];
    let load_lookups: u64 = untraced.load.iter().map(|s| s.lookups).sum();
    let measured_lookups = load_lookups + untraced.light.iter().map(|s| s.lookups).sum::<u64>();
    let end_to_end = vec![
        metric(
            "rss_b_per_lookup",
            rss_growth as f64 / measured_lookups as f64,
            Some(measured_lookups),
        ),
        metric("setup_s", setup_time(&|t| t.total_ns()) / 1e9, Some(setups.len() as u64)),
    ];
    let reported = vec![
        metric("lookups_per_s", untraced.lookups_per_s(), Some(load_lookups)),
        metric("p50_ms", untraced.p50_ms(), Some(untraced.rtt.len() as u64)),
        metric(
            "cpu_us_per_lookup",
            untraced.load_total(|s| s.server.run_ns) / 1e3,
            Some(load_lookups),
        ),
        metric(
            "fail_ratio",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            Some(tally.attempted),
        ),
    ];
    let mut context = vec![
        format!(
            "workload {} (case {}: {}) | seed {} | seconds {} | trace {}",
            workload.name(),
            workload.case().number(),
            workload.case().name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "gateway mode {mode} | 1 shard, 1 gateway thread, 1 driver thread, \
             {LOAD_DEPTH} lookups in flight under load | {placement} | {plan:?}"
        ),
        format!(
            "machine {cores} cores | steal {:.1}% set-up, {:.1}% light, {:.1}% load",
            steal_setup,
            untraced.steal_light.steal_pct_since(&CpuTimes::default()),
            untraced.steal_load.steal_pct_since(&CpuTimes::default())
        ),
        format!("lookups {tally:?}"),
    ];

    let (metrics, extra) = match ladder {
        None => (end_to_end, reported),
        Some(mut ladder) => {
            let (untraced, traced) = passes.split_at_mut(1);
            let setup = SetupSummary {
                load_ms: setup_time(&|t| t.load_ns) / 1e6,
                deploy_ms: setup_time(&|t| t.deploy_ns) / 1e6,
                launch_ms: setup_time(&|t| t.launch_ns) / 1e6,
                first_reply_ms: setup_time(&|t| t.first_reply_ns) / 1e6,
                steal_pct: steal_setup,
                cores,
                rounds: setups.len() as u64,
            };
            let per_layer =
                per_layer(&mut untraced[0], &mut traced[0], &mut ladder, &served, &cache, &setup);
            let mut extra = end_to_end;
            extra.extend(reported);
            extra.push(metric("trace.spans", rec.spans().len() as f64, None));
            context.push(write_spans(workload, &rec));
            (per_layer, extra)
        }
    };
    drop(served);

    for metric in &metrics {
        if !metric.value.is_finite() {
            violations.push(format!("{} is not finite", metric.name));
        }
    }
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        extra,
        context,
        violations,
    })
}

/// Pins the driver to the first allowed CPU and returns the second,
/// where the served deployment's threads go: the generator then never
/// takes the server's core, and every run places the threads alike.
/// Threads the driver spawns (each set-up's) inherit its CPU.
fn place_driver(driver_tid: u32) -> (Option<usize>, String) {
    let cpus = procfs::allowed_cpus();
    let [driver_cpu, server_cpu, ..] = cpus[..] else {
        return (None, format!("unpinned: {} CPU(s) allowed", cpus.len()));
    };
    match procfs::pin(driver_tid, driver_cpu) {
        Ok(()) => (
            Some(server_cpu),
            format!(
                "driver and set-ups on cpu {driver_cpu}, gateway and shard on cpu {server_cpu}"
            ),
        ),
        Err(err) => (None, format!("unpinned: {err}")),
    }
}

/// One round of full set-ups, each torn down before the next; returns
/// the fastest and folds the round's steal ticks into `steal`.
fn setup_round(
    workload: Workload,
    seed: u64,
    driver: &mut Driver,
    rec: &mut Recorder,
    steal: &mut CpuTimes,
) -> Result<served::SetupTimes, String> {
    let before = procfs::cpu_times().unwrap_or_default();
    let mut fastest: Option<served::SetupTimes> = None;
    for _ in 0..SETUPS_PER_ROUND {
        let (served, times) = served::set_up(workload, seed, driver, rec)?;
        drop(served);
        if fastest.is_none_or(|f| times.total_ns() < f.total_ns()) {
            fastest = Some(times);
        }
    }
    steal.accumulate(&before, &procfs::cpu_times().unwrap_or_default());
    Ok(fastest.expect("a round has set-ups"))
}

/// Set-up figures for the per-layer line: each step at
/// [`SETUP_PERCENTILE`] over the rounds' fastest set-ups, the steal
/// during set-up rounds, the core count and the number of rounds.
struct SetupSummary {
    load_ms: f64,
    deploy_ms: f64,
    launch_ms: f64,
    first_reply_ms: f64,
    steal_pct: f64,
    cores: usize,
    rounds: u64,
}

/// The traced run's result line: every layer's metric.
fn per_layer(
    untraced: &mut Pass,
    traced: &mut Pass,
    ladder: &mut ladder::Ladder,
    served: &Served,
    cache: &CacheStats,
    setup: &SetupSummary,
) -> Vec<Metric> {
    let stats = served.stats.concurrency();
    let gateway = served.gateway.stats();
    let datagrams: u64 = untraced.load.iter().map(|s| s.datagrams_in).sum();
    let submits: u64 = untraced.load.iter().map(|s| s.submits).sum();
    let load_lookups: u64 = untraced.load.iter().map(|s| s.lookups).sum();
    let light = untraced.rtt.len() as u64;
    let p50_us = |l: &mut Latencies| l.percentile(50.0).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    let rung = |l: &Latencies| Some(l.len() as u64);
    let (gateway_us, shard_us, sim_us) =
        (p50_us(&mut ladder.gateway), p50_us(&mut ladder.shard), p50_us(&mut ladder.sim));
    let sim_lookups = ladder.sim_lookups;
    let p50_ms = untraced.p50_ms();
    let p99_ms = untraced.rtt.percentile(99.0).map_or(f64::NAN, |ns| ns as f64 / 1e6);
    let per_load = |f: &dyn Fn(&Segment) -> u64| untraced.load_total(f);
    vec![
        metric("gateway.lookups_per_s", untraced.lookups_per_s(), Some(load_lookups)),
        metric("gateway.p50_ms", p50_ms, Some(light)),
        metric("gateway.cpu_us_per_lookup", per_load(&|s| s.gateway.run_ns) / 1e3, None),
        metric("gateway.runq_wait_us_per_lookup", per_load(&|s| s.gateway.wait_ns) / 1e3, None),
        metric("gateway.wakeups_per_lookup", per_load(&|s| s.gateway.voluntary), None),
        metric(
            "gateway.datagrams_per_submit",
            datagrams as f64 / submits.max(1) as f64,
            Some(submits),
        ),
        metric("gateway.socket_us", gateway_us - shard_us, rung(&ladder.gateway)),
        metric("gateway.p99_ms", p99_ms, Some(light)),
        metric("gateway.samples", light as f64, None),
        metric("gateway.send_errors", gateway.send_errors as f64, None),
        metric("gateway.launch_ms", setup.launch_ms, Some(setup.rounds)),
        metric("gateway.first_reply_ms", setup.first_reply_ms, Some(setup.rounds)),
        metric("reactor.echo_us", p50_us(&mut ladder.reactor), rung(&ladder.reactor)),
        metric("realnet.echo_us", p50_us(&mut ladder.realnet), rung(&ladder.realnet)),
        metric("shard.cpu_us_per_lookup", per_load(&|s| s.shard.run_ns) / 1e3, None),
        metric("shard.runq_wait_us_per_lookup", per_load(&|s| s.shard.wait_ns) / 1e3, None),
        metric("shard.wakeups_per_lookup", per_load(&|s| s.shard.voluntary), None),
        metric("shard.handoff_us", shard_us - sim_us, rung(&ladder.shard)),
        metric("shard.backlog_max", traced.backlog_max as f64, None),
        metric("sim.us_per_lookup", sim_us, rung(&ladder.sim)),
        metric(
            "sim.trace_entries_per_lookup",
            ladder.sim_trace_entries as f64 / sim_lookups as f64,
            Some(sim_lookups),
        ),
        metric(
            "sim.retained_b_per_lookup",
            ladder.sim_rss_growth as f64 / sim_lookups as f64,
            Some(sim_lookups),
        ),
        metric(
            "engine.completed_ratio",
            stats.completed as f64 / stats.started.max(1) as f64,
            Some(stats.started),
        ),
        metric("engine.failed", stats.failed as f64, None),
        metric("engine.expired", stats.expired as f64, None),
        metric("fused.cache_hit_ratio", cache.hit_rate(), Some(cache.hits + cache.misses)),
        metric("framework.load_ms", setup.load_ms, Some(setup.rounds)),
        metric("framework.deploy_ms", setup.deploy_ms, Some(setup.rounds)),
        metric("driver.cpu_us_per_lookup", per_load(&|s| s.driver.run_ns) / 1e3, None),
        metric("machine.cores", setup.cores as f64, None),
        metric("machine.steal_pct_setup", setup.steal_pct, None),
        metric(
            "machine.steal_pct_light",
            untraced.steal_light.steal_pct_since(&CpuTimes::default()),
            None,
        ),
        metric(
            "machine.steal_pct_load",
            untraced.steal_load.steal_pct_since(&CpuTimes::default()),
            None,
        ),
        metric(
            "trace.overhead_pct",
            100.0 * (traced.p50_ms() / p50_ms - 1.0),
            Some(traced.rtt.len() as u64),
        ),
        metric(
            "trace.tput_overhead_pct",
            100.0 * (1.0 - traced.lookups_per_s() / untraced.lookups_per_s()),
            None,
        ),
    ]
}

fn metric(name: &'static str, value: f64, samples: Option<u64>) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(REPORTED.iter())
        .chain([("trace.spans", "count")].iter())
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, unit)| unit);
    Metric { name, value, unit, samples }
}

fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        expirations: after.expirations - before.expirations,
    }
}

/// `cached` must be served from the cache and the others must not: a
/// change in either turns one workload into another.
fn check_cache(workload: Workload, cache: &CacheStats, violations: &mut Vec<String>) {
    if workload.cached() && cache.hit_rate() < MIN_CACHE_HIT_RATIO {
        violations.push(format!(
            "cache hit ratio {} below {MIN_CACHE_HIT_RATIO}: {cache:?}",
            cache.hit_rate()
        ));
    }
    if !workload.cached() && cache.hits > 0 {
        violations.push(format!("{} lookups hit a cache that is off: {cache:?}", cache.hits));
    }
}

/// Flushes the deployment, waits for every session to close and checks
/// the invariants the counters must hold.
fn settle(served: &Served, violations: &mut Vec<String>) {
    let deadline = Instant::now() + Duration::from_secs(3);
    served.gateway.flush();
    while served.stats.concurrency().active > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        served.gateway.flush();
    }
    let consistent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        served.stats.assert_consistent("served deployment");
    }));
    if let Err(panic) = consistent {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        violations.push(format!("ShardedStats::assert_consistent failed: {message}"));
    }
    let active = served.stats.concurrency().active;
    if active != 0 {
        violations.push(format!("{active} sessions still active after the final flush"));
    }
    for error in served.gateway.errors().into_iter().chain(served.stats.errors()).take(8) {
        violations.push(format!("program error: {error}"));
    }
}

/// Writes the spans next to the benchmark and returns a summary line.
fn write_spans(workload: Workload, rec: &Recorder) -> String {
    let spans = rec.spans();
    let own = spans::self_times(spans);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.tsv", workload.name()));
    let written = match spans::write_tsv(&path, spans, &own) {
        Ok(()) => format!("{} spans written to {}", spans.len(), path.display()),
        Err(err) => format!("spans not written ({}): {err}", path.display()),
    };
    let mut out = written;
    for (name, summary) in spans::summarize(spans, &own) {
        let _ = write!(
            out,
            "\n  span {name:<24} n={:<8} mean {:>9.2} us  self {:>9.2} us",
            summary.count,
            summary.total_ns as f64 / summary.count as f64 / 1e3,
            summary.self_ns as f64 / summary.count as f64 / 1e3
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parsed =
            args(&["--workload", "chain", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .unwrap();
        assert_eq!(parsed, Args { workload: Workload::Chain, seed: 7, seconds: 3.0, trace: true });
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "mixed"]).is_err());
        assert!(args(&["--workload", "fused", "--trace", "yes"]).is_err());
        assert!(args(&["--workload", "fused", "--seconds"]).is_err());
        assert!(args(&["--workload", "fused", "--seconds", "0"]).is_err());
    }

    #[test]
    fn plans_depend_on_seconds_only() {
        let a = Plan::new(Workload::Fused, 10.0, false);
        assert_eq!(a, Plan::new(Workload::Fused, 10.0, false));
        let b = Plan::new(Workload::Fused, 20.0, false);
        assert!(b.load > a.load && b.light > a.light);
        let tiny = Plan::new(Workload::Chain, 0.01, true);
        assert!(tiny.light >= 20 && tiny.load >= 20 && tiny.rung >= 20);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![metric("p50_ms", 0.0842, None), metric("setup_s", f64::NAN, None)],
            extra: Vec::new(),
            context: Vec::new(),
            violations: Vec::new(),
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms\": \
             {\"value\": 0.0842, \"unit\": \"ms\"}, \"setup_s\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn every_metric_has_a_unit() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()).chain(REPORTED.iter()) {
            assert_eq!(metric(name, 1.0, None).unit, *unit);
        }
    }
}
