//! The benchmark's four workloads: what each one generates during
//! set-up, the replay it times, the output checks it must pass, and the
//! per-layer split a traced run adds.
//!
//! Every workload replays a DR1 trace against the DR1 catalog at full
//! scale with column granularity. The file workloads make the library
//! calls `byc run --streaming` makes (`TraceReader::open`,
//! `ReplaySession::from_reader(..).streaming()`, `render_cost_table`),
//! but build the DR1 catalog themselves: `byc run FILE` always prices a
//! file against the EDR catalog.

use crate::timing::{DecideStats, StatsSlot, TimedObserver, TimedPolicy};
use byc_analysis::{render_cost_table, render_metrics_table};
use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Catalog, Granularity, ObjectCatalog};
use byc_core::static_opt::ObjectDemand;
use byc_core::{CachePolicy, ShardPlan, ShardedPolicy};
use byc_engine::YieldModel;
use byc_federation::{
    build_policy, build_sharded, ChunkCompiler, CompiledTrace, CostReport, DegradationPolicy,
    FlakyLinks, Observer, PolicyKind, ReplaySession, RetryPolicy, Topology, Uniform,
};
use byc_telemetry::{
    write_metrics, EventLogWriter, MetricsFormat, MetricsRegistry, TelemetryObserver,
};
use byc_types::{Error, Result};
use byc_workload::{
    generate_with, Trace, TraceQuery, TraceReader, TraceSpec, TraceWriter, WorkloadConfig,
    WorkloadStats,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The SDSS release every workload generates and prices against.
pub const RELEASE: SdssRelease = SdssRelease::Dr1;
/// Catalog scale (1.0 = full size).
pub const SCALE: f64 = 1.0;
/// Servers in the federation (a flat, uniformly priced WAN).
pub const SERVERS: u32 = 1;
/// Cache objects are columns.
pub const GRANULARITY: Granularity = Granularity::Column;
/// Object-range shards on `stream-sharded`.
pub const SHARDS: usize = 2;
/// Queries per decoded chunk: the streamed session's default.
const CHUNK: usize = 4096;
/// Transfer attempts per slice on `stream-observed` (`--retry 3`).
const RETRY_ATTEMPTS: u32 = 3;
/// Retry backoff unit in query ticks, as `byc run` uses.
const RETRY_BACKOFF: u64 = 1;
/// Timed repetitions per untraced `mem-thin-cache` run process.
const MEMORY_REPEATS: usize = 4;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// GDS at 15% over a streamed file, flat network, no observers.
    StreamDecode,
    /// Rate-Profile at 2% and 5% over a resident trace, compiled replay.
    MemThinCache,
    /// Rate-Profile at 15% over a streamed file on a three-tier
    /// topology, with flaky links, retries, event log and metrics export.
    StreamObserved,
    /// `StreamDecode` split across two object-range shards.
    StreamSharded,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 4] = [
        Workload::StreamDecode,
        Workload::MemThinCache,
        Workload::StreamObserved,
        Workload::StreamSharded,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamDecode => "stream-decode",
            Workload::MemThinCache => "mem-thin-cache",
            Workload::StreamObserved => "stream-observed",
            Workload::StreamSharded => "stream-sharded",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads that replay a trace file.
    pub fn reads_file(self) -> bool {
        self != Workload::MemThinCache
    }

    /// The replayed policy.
    pub fn policy(self) -> PolicyKind {
        match self {
            Workload::StreamDecode | Workload::StreamSharded => PolicyKind::Gds,
            Workload::MemThinCache | Workload::StreamObserved => PolicyKind::RateProfile,
        }
    }

    /// Object-range shards the replay fans out to (1 = unsharded).
    pub fn shards(self) -> usize {
        match self {
            Workload::StreamSharded => SHARDS,
            _ => 1,
        }
    }

    /// Queries in the generated trace. The file workloads replay a
    /// ~38 MB file; `mem-thin-cache` replays a longer resident trace
    /// because its decision cost varies more from seed to seed.
    pub fn queries(self) -> usize {
        match self {
            Workload::MemThinCache => 300_000,
            _ => 100_000,
        }
    }

    /// Cache fractions replayed in one run, in order.
    pub fn fractions(self) -> &'static [f64] {
        match self {
            Workload::MemThinCache => &[0.02, 0.05],
            _ => &[0.15],
        }
    }
}

/// The catalog and object view every replay of a run shares.
pub struct Fixture {
    /// The DR1 catalog the trace was generated against.
    pub catalog: Catalog,
    /// Column-granularity cache objects.
    pub objects: ObjectCatalog,
}

impl Fixture {
    /// Build the DR1 catalog and its column objects.
    pub fn new() -> Fixture {
        let catalog = sdss::build(RELEASE, SCALE, SERVERS);
        let objects = ObjectCatalog::uniform(&catalog, GRANULARITY);
        Fixture { catalog, objects }
    }
}

/// The trace recipe of `workload` for `seed`.
pub fn spec(workload: Workload, seed: u64) -> TraceSpec {
    TraceSpec::new(RELEASE)
        .seed(seed)
        .scale(SCALE)
        .queries(workload.queries())
}

/// The generated trace file of a file workload.
pub fn trace_path(dir: &Path) -> PathBuf {
    dir.join("trace.jsonl")
}

/// The decision event log `stream-observed` writes.
pub fn events_path(dir: &Path) -> PathBuf {
    dir.join("events.ndjson")
}

/// The metrics export `stream-observed` writes.
pub fn metrics_path(dir: &Path) -> PathBuf {
    dir.join("metrics.prom")
}

/// What one set-up produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Wall time of the set-up.
    pub wall: Duration,
    /// Queries generated.
    pub queries: usize,
    /// Size of the written trace file (0 in memory).
    pub file_bytes: u64,
    /// Generator self time: the set-up minus the time spent in the
    /// `TraceWriter::write` sink, or minus the demand profile in memory.
    pub generate: Duration,
    /// Time spent encoding and writing queries (traced file set-ups).
    pub encode_write: Duration,
}

/// Run the workload's set-up once: write the trace file (what
/// `byc gen-trace` does) or generate the trace and its demand profile in
/// memory. A traced set-up splits generation from encoding by driving
/// `generate_with` with a timed `TraceWriter::write` sink; the file it
/// writes is the same.
pub fn setup(workload: Workload, seed: u64, dir: &Path, traced: bool) -> Result<Setup> {
    let mut out = Setup::default();
    if !workload.reads_file() {
        let fixture = Fixture::new();
        let start = Instant::now();
        let trace = spec(workload, seed).generate()?;
        out.generate = start.elapsed();
        let demands = WorkloadStats::compute(&trace, &fixture.objects).demands;
        out.wall = start.elapsed();
        out.queries = trace.len();
        std::hint::black_box((&trace, &demands));
        return Ok(out);
    }
    let path = trace_path(dir);
    let start = Instant::now();
    if traced {
        let catalog = sdss::build(RELEASE, SCALE, SERVERS);
        let config = config(workload, seed);
        let mut writer = TraceWriter::create(&path, &config.name, config.seed, config.query_count)?;
        let mut encode = Duration::ZERO;
        generate_with(&catalog, &config, |q| {
            let at = Instant::now();
            let written = writer.write(&q);
            encode += at.elapsed();
            written
        })?;
        let at = Instant::now();
        writer.finish()?;
        out.encode_write = encode + at.elapsed();
        out.queries = config.query_count;
    } else {
        out.queries = spec(workload, seed).out(&path).write()?.queries;
    }
    out.wall = start.elapsed();
    out.generate = out.wall.saturating_sub(out.encode_write);
    out.file_bytes = std::fs::metadata(&path)?.len();
    Ok(out)
}

/// The generator configuration [`spec`] resolves to, for the traced
/// set-ups that drive `generate_with` themselves.
fn config(workload: Workload, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        query_count: workload.queries(),
        ..WorkloadConfig::dr1(seed)
    }
}

/// Timings and counts a traced run collects through the wrappers.
#[derive(Debug, Default)]
pub struct Probe {
    slots: Vec<StatsSlot>,
    /// Time inside observer hooks plus the metrics export.
    pub observe: Duration,
    /// Timed observer hook calls.
    pub observe_calls: u64,
}

impl Probe {
    /// Wrap `policy` in a [`TimedPolicy`] reporting to a new slot.
    fn wrap(
        &mut self,
        policy: Box<dyn CachePolicy + Send + Sync>,
    ) -> Box<dyn CachePolicy + Send + Sync> {
        let slot = StatsSlot::default();
        self.slots.push(slot.clone());
        Box::new(TimedPolicy::new(policy, slot))
    }

    /// Per-policy stats, in wrapping order. Read after the wrapped
    /// policies have been dropped.
    pub fn stats(&self) -> Vec<DecideStats> {
        self.slots
            .iter()
            .map(|s| s.lock().map(|g| *g).unwrap_or_default())
            .collect()
    }
}

fn maybe_wrap(
    probe: &mut Option<Probe>,
    policy: Box<dyn CachePolicy + Send + Sync>,
) -> Box<dyn CachePolicy + Send + Sync> {
    match probe {
        Some(p) => p.wrap(policy),
        None => policy,
    }
}

/// Where a replay reads its queries from.
pub enum Source<'a> {
    /// Streamed off a trace file.
    File(&'a mut TraceReader),
    /// A resident trace, replayed by the in-memory (unstreamed) path.
    Memory(&'a Trace),
}

/// One replayed report plus what it cost to render.
#[derive(Debug)]
pub struct Replayed {
    /// The replay's cost report.
    pub report: CostReport,
    /// Time spent rendering.
    pub render: Duration,
}

/// Render `report` as `byc run` titles it, timing the rendering.
fn render(report: CostReport, fraction: f64, objects: &ObjectCatalog, suffix: &str) -> Replayed {
    let title = format!(
        "{} on {} ({} caching, cache {:.0}% = {}{suffix})",
        report.policy,
        report.trace,
        report.granularity,
        fraction * 100.0,
        objects.total_size().scale(fraction)
    );
    let at = Instant::now();
    let text = render_cost_table(&title, std::slice::from_ref(&report));
    let render = at.elapsed();
    std::hint::black_box(text);
    Replayed { report, render }
}

fn check_warnings(warnings: &[String]) -> Result<()> {
    match warnings.first() {
        Some(w) => Err(Error::InvalidConfig(format!("replay warned: {w}"))),
        None => Ok(()),
    }
}

/// Replay one file workload's configuration from `source`. With
/// `sequential_shards`, `stream-sharded` drives its `ShardedPolicy`
/// through `.policy(..)` on one thread (the reference its parallel
/// report must equal) instead of through `.shards(..)`.
pub fn replay_file_workload(
    fixture: &Fixture,
    workload: Workload,
    source: Source<'_>,
    seed: u64,
    telemetry_dir: Option<&Path>,
    probe: &mut Option<Probe>,
    sequential_shards: bool,
) -> Result<Replayed> {
    let objects = &fixture.objects;
    let kind = workload.policy();
    let fraction = workload.fractions()[0];
    let capacity = objects.total_size().scale(fraction);
    let session = match source {
        Source::File(reader) => ReplaySession::from_reader(reader, objects).streaming(),
        Source::Memory(trace) => ReplaySession::new(trace, objects),
    };
    match workload {
        Workload::StreamDecode => {
            let mut policy = maybe_wrap(probe, build_policy(kind, capacity, &[], seed));
            let replay = session.policy(policy.as_mut()).run()?;
            drop(policy);
            check_warnings(&replay.warnings)?;
            Ok(render(replay.report, fraction, objects, ""))
        }
        Workload::StreamSharded => {
            let plan = ShardPlan::new(workload.shards(), objects.len());
            let mut sharded = match probe {
                None => build_sharded(kind, plan, capacity, &[], seed)?,
                Some(p) => {
                    // build_sharded's construction, each shard wrapped.
                    let mut shards = Vec::new();
                    for (shard, cap) in plan.split_capacity(capacity).into_iter().enumerate() {
                        let policy = build_policy(kind, cap, &[], seed.wrapping_add(shard as u64));
                        shards.push(p.wrap(policy));
                    }
                    ShardedPolicy::new(plan, shards)?
                }
            };
            let replay = if sequential_shards {
                session.policy(&mut sharded).run()?
            } else {
                session.shards(&mut sharded).run()?
            };
            drop(sharded);
            check_warnings(&replay.warnings)?;
            Ok(render(replay.report, fraction, objects, ""))
        }
        Workload::StreamObserved => {
            let topology = Topology::three_tier(0.1, 0.25, Box::new(Uniform))?;
            let mut tiers = Vec::new();
            for spec in topology.tiers() {
                let cap = objects.total_size().scale(fraction * spec.capacity_scale);
                tiers.push(maybe_wrap(probe, build_policy(kind, cap, &[], seed)));
            }
            let faults = FlakyLinks::new(seed, 0.01, 0.05, 4.0);
            let mut telemetry = TelemetryObserver::new(kind.label());
            if let Some(dir) = telemetry_dir {
                telemetry = telemetry
                    .with_event_log(EventLogWriter::create(&events_path(dir), kind.label())?);
            }
            let mut timed = None;
            let observer: &mut dyn Observer = if probe.is_some() {
                timed.insert(TimedObserver::new(&mut telemetry))
            } else {
                &mut telemetry
            };
            let mut session = session
                .topology(&topology)
                .faults(&faults)
                .retry(RetryPolicy::new(RETRY_ATTEMPTS, RETRY_BACKOFF))
                .degrade(DegradationPolicy::ServeStale)
                .observe(observer);
            for policy in tiers.iter_mut() {
                session = session.tier_policy(policy.as_mut());
            }
            let replay = session.run()?;
            let (mut observe, observe_calls) =
                timed.map_or((Duration::ZERO, 0), |t| (t.busy(), t.calls()));
            drop(tiers);
            check_warnings(&replay.warnings)?;
            // The export is the telemetry layer's too: `byc run
            // --metrics` absorbs the snapshot and writes it after the
            // replay.
            let at = Instant::now();
            let (snapshot, io) = telemetry.into_parts();
            io?;
            let mut registry = MetricsRegistry::new();
            registry.absorb(snapshot);
            if let Some(dir) = telemetry_dir {
                write_metrics(&registry, MetricsFormat::Prometheus, &metrics_path(dir))?;
            }
            observe += at.elapsed();
            if let Some(p) = probe.as_mut() {
                p.observe += observe;
                p.observe_calls += observe_calls + 1;
            }
            let mut replayed = render(replay.report, fraction, objects, ", three-tier topology");
            let at = Instant::now();
            let table = render_metrics_table("telemetry by (server, object class)", &registry);
            replayed.render += at.elapsed();
            std::hint::black_box(table);
            Ok(replayed)
        }
        Workload::MemThinCache => Err(Error::InvalidConfig(
            "mem-thin-cache replays a resident trace, not a file".into(),
        )),
    }
}

/// Replay `mem-thin-cache`'s policy at `fraction`, compiled or streamed.
pub fn replay_memory(
    fixture: &Fixture,
    trace: &Trace,
    demands: &[ObjectDemand],
    fraction: f64,
    seed: u64,
    probe: &mut Option<Probe>,
    streamed: bool,
) -> Result<Replayed> {
    let objects = &fixture.objects;
    let capacity = objects.total_size().scale(fraction);
    let kind = Workload::MemThinCache.policy();
    let mut policy = maybe_wrap(probe, build_policy(kind, capacity, demands, seed));
    let session = ReplaySession::new(trace, objects).policy(policy.as_mut());
    let session = if streamed {
        session.streaming()
    } else {
        session.compiled()
    };
    let replay = session.run()?;
    drop(policy);
    check_warnings(&replay.warnings)?;
    Ok(render(replay.report, fraction, objects, ""))
}

/// One timed run of a workload.
#[derive(Debug)]
pub struct Run {
    /// Wall time from trace open (or session build) to the last
    /// rendered report, once per repetition.
    pub walls: Vec<Duration>,
    /// Queries the run should replay (header or generated count, per
    /// replay, summed).
    pub expected_queries: usize,
    /// One report per replay, in fraction order.
    pub reports: Vec<CostReport>,
    /// Time spent rendering reports.
    pub render: Duration,
    /// Bytes of the event log written (`stream-observed`).
    pub event_log_bytes: u64,
    /// The wrappers' timings and counts (traced runs).
    pub probe: Option<Probe>,
}

/// Time one run of `workload`. A traced run wraps every policy and
/// observer; an untraced one replays exactly what `byc run` would.
pub fn run(workload: Workload, seed: u64, dir: &Path, traced: bool) -> Result<Run> {
    let fixture = Fixture::new();
    let mut probe = traced.then(Probe::default);
    let mut reports = Vec::new();
    let mut render = Duration::ZERO;
    let expected_queries;
    let mut walls = Vec::new();
    if workload.reads_file() {
        let start = Instant::now();
        let mut reader = TraceReader::open(&trace_path(dir))?;
        expected_queries = reader.query_count();
        let replayed = replay_file_workload(
            &fixture,
            workload,
            Source::File(&mut reader),
            seed,
            Some(dir),
            &mut probe,
            false,
        )?;
        walls.push(start.elapsed());
        render += replayed.render;
        reports.push(replayed.report);
    } else {
        // Preparation, not the timed run: the set-up command times it.
        let trace = spec(workload, seed).generate()?;
        let demands = WorkloadStats::compute(&trace, &fixture.objects).demands;
        // The replays are short next to generating the trace, so an
        // untraced run repeats them; every repetition must agree.
        let repeats = if traced { 1 } else { MEMORY_REPEATS };
        for _ in 0..repeats {
            let start = Instant::now();
            let mut repeated = Vec::new();
            render = Duration::ZERO;
            for &fraction in workload.fractions() {
                let replayed = replay_memory(
                    &fixture, &trace, &demands, fraction, seed, &mut probe, false,
                )?;
                render += replayed.render;
                repeated.push(replayed.report);
            }
            walls.push(start.elapsed());
            if !reports.is_empty() && reports != repeated {
                return Err(Error::InvalidConfig(
                    "repeated replays of one trace disagree".into(),
                ));
            }
            reports = repeated;
        }
        expected_queries = trace.len() * workload.fractions().len();
    }
    let event_log_bytes = match workload {
        Workload::StreamObserved => std::fs::metadata(events_path(dir))?.len(),
        _ => 0,
    };
    Ok(Run {
        walls,
        expected_queries,
        reports,
        render,
        event_log_bytes,
        probe,
    })
}

/// The output checks of one workload: every failure, described.
pub fn check(workload: Workload, seed: u64, dir: &Path) -> Result<(Vec<String>, Vec<CostReport>)> {
    let fixture = Fixture::new();
    let mut failures = Vec::new();
    let mut fail = |what: String| failures.push(what);
    let mut reports = Vec::new();
    if workload.reads_file() {
        let mut reader = TraceReader::open(&trace_path(dir))?;
        let header = reader.query_count();
        let streamed = replay_file_workload(
            &fixture,
            workload,
            Source::File(&mut reader),
            seed,
            None,
            &mut None,
            false,
        )?
        .report;
        let reference = if workload == Workload::StreamSharded {
            // DESIGN.md §17.3: the merged parallel report equals the
            // same ShardedPolicy replayed sequentially.
            let mut reader = TraceReader::open(&trace_path(dir))?;
            replay_file_workload(
                &fixture,
                workload,
                Source::File(&mut reader),
                seed,
                None,
                &mut None,
                true,
            )?
            .report
        } else {
            // The same generated trace, replayed resident.
            let trace = spec(workload, seed).generate()?;
            replay_file_workload(
                &fixture,
                workload,
                Source::Memory(&trace),
                seed,
                None,
                &mut None,
                false,
            )?
            .report
        };
        if header != workload.queries() {
            fail(format!(
                "trace header promises {header} queries, generated {}",
                workload.queries()
            ));
        }
        if streamed != reference {
            let what = if workload == Workload::StreamSharded {
                "sequential sharded"
            } else {
                "in-memory"
            };
            fail(format!(
                "streamed report differs from the {what} replay: {streamed:?} vs {reference:?}"
            ));
        }
        reports.push(streamed);
        reports.push(reference);
    } else {
        let trace = spec(workload, seed).generate()?;
        if trace.len() != workload.queries() {
            fail(format!(
                "generated {} queries, asked for {}",
                trace.len(),
                workload.queries()
            ));
        }
        let demands = WorkloadStats::compute(&trace, &fixture.objects).demands;
        for &fraction in workload.fractions() {
            let compiled =
                replay_memory(&fixture, &trace, &demands, fraction, seed, &mut None, false)?.report;
            let streamed =
                replay_memory(&fixture, &trace, &demands, fraction, seed, &mut None, true)?.report;
            if compiled != streamed {
                fail(format!(
                    "compiled report differs from the streamed one at {fraction}: \
                     {compiled:?} vs {streamed:?}"
                ));
            }
            reports.push(compiled);
            reports.push(streamed);
        }
    }
    for report in &reports {
        if !report.conserves_delivery() {
            fail(format!("report does not conserve delivery: {report:?}"));
        }
        if report.queries != workload.queries() {
            fail(format!(
                "replayed {} queries of {}",
                report.queries,
                workload.queries()
            ));
        }
    }
    Ok((failures, reports))
}

/// The per-layer split measured beside the traced runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// `TraceReader::next_chunk` time over the whole file.
    pub decode: Duration,
    /// Bytes of the decoded file.
    pub decode_bytes: u64,
    /// Queries decoded.
    pub decode_queries: usize,
    /// Compile time of one run (`ChunkCompiler::compile` over every
    /// chunk, or one `CompiledTrace::compile` per replayed fraction).
    pub compile: Duration,
    /// Compiled slices of one pass over the trace.
    pub slices: usize,
    /// Queries compiled in that pass.
    pub compiled_queries: usize,
    /// `byc_sql::parse` over every query's SQL.
    pub parse: Duration,
    /// `byc_sql::analyze` over every parsed query.
    pub analyze: Duration,
    /// `YieldModel::estimate` over every analyzed query.
    pub estimate: Duration,
}

/// Re-time the SQL substrate over `queries`: parse the rendered SQL,
/// analyze it, and estimate its yield, as the generator does.
fn time_sql(
    catalog: &Catalog,
    model: &YieldModel<'_>,
    queries: &[TraceQuery],
    out: &mut Layers,
) -> Result<()> {
    for q in queries {
        let at = Instant::now();
        let parsed = byc_sql::parse(&q.sql)?;
        let parsed_at = Instant::now();
        let resolved = byc_sql::analyze(catalog, &parsed)?;
        let analyzed_at = Instant::now();
        let breakdown = model.estimate(&resolved);
        let done = Instant::now();
        std::hint::black_box(breakdown);
        out.parse += parsed_at - at;
        out.analyze += analyzed_at - parsed_at;
        out.estimate += done - analyzed_at;
    }
    Ok(())
}

/// Decode and compile the workload's trace outside the replay, and
/// re-time the SQL substrate over it: the split a replay session does
/// not expose.
pub fn layers(workload: Workload, seed: u64, dir: &Path) -> Result<Layers> {
    let fixture = Fixture::new();
    let model = YieldModel::new(&fixture.catalog);
    let mut out = Layers::default();
    if workload.reads_file() {
        let path = trace_path(dir);
        out.decode_bytes = std::fs::metadata(&path)?.len();
        let mut reader = TraceReader::open(&path)?;
        let topology = Topology::three_tier(0.1, 0.25, Box::new(Uniform))?;
        let mut compiler = match workload {
            Workload::StreamObserved => ChunkCompiler::tiered(&fixture.objects, &topology),
            _ => ChunkCompiler::flat(&fixture.objects, &Uniform),
        };
        loop {
            let at = Instant::now();
            let chunk = reader.next_chunk(CHUNK)?;
            out.decode += at.elapsed();
            if chunk.is_empty() {
                break;
            }
            out.decode_queries += chunk.len();
            let at = Instant::now();
            let compiled = compiler.compile(&chunk);
            out.compile += at.elapsed();
            out.slices += compiled.slices().len();
            out.compiled_queries += compiled.queries();
            time_sql(&fixture.catalog, &model, &chunk, &mut out)?;
        }
    } else {
        let trace = spec(workload, seed).generate()?;
        for _ in workload.fractions() {
            let at = Instant::now();
            let compiled = CompiledTrace::compile(&trace, &fixture.objects, &Uniform);
            out.compile += at.elapsed();
            out.slices = compiled.slices().len();
            out.compiled_queries = compiled.queries();
        }
        time_sql(&fixture.catalog, &model, &trace.queries, &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> Trace {
        TraceSpec::new(RELEASE)
            .seed(5)
            .scale(SCALE)
            .queries(600)
            .generate()
            .expect("generate a small trace")
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()))
    }

    /// Replay `workload`'s configuration over `trace`, with or without
    /// the timing wrappers, returning the report, the event log's bytes
    /// and the wrappers' stats.
    fn replay(
        fixture: &Fixture,
        workload: Workload,
        trace: &Trace,
        wrapped: bool,
    ) -> (CostReport, Vec<u8>, Vec<DecideStats>) {
        let dir = temp_path(&format!("{}-{wrapped}", workload.name()));
        std::fs::create_dir_all(&dir).expect("create a temporary directory");
        let mut probe = wrapped.then(Probe::default);
        let report = replay_file_workload(
            fixture,
            workload,
            Source::Memory(trace),
            5,
            Some(&dir),
            &mut probe,
            false,
        )
        .expect("replay")
        .report;
        let bytes = std::fs::read(events_path(&dir)).unwrap_or_default();
        std::fs::remove_dir_all(&dir).ok();
        (report, bytes, probe.map(|p| p.stats()).unwrap_or_default())
    }

    #[test]
    fn wrappers_leave_reports_and_event_logs_unchanged() {
        let fixture = Fixture::new();
        let trace = small_trace();
        for workload in [
            Workload::StreamDecode,
            Workload::StreamObserved,
            Workload::StreamSharded,
        ] {
            let (plain, plain_log, _) = replay(&fixture, workload, &trace, false);
            let (timed, timed_log, stats) = replay(&fixture, workload, &trace, true);
            assert_eq!(plain, timed, "{}", workload.name());
            assert_eq!(plain_log, timed_log, "{}", workload.name());
            // One wrapper per policy instance: a policy, three tiers, or
            // one per shard.
            let instances = match workload {
                Workload::StreamObserved => 3,
                _ => workload.shards(),
            };
            assert_eq!(stats.len(), instances, "{}", workload.name());
            assert!(stats
                .iter()
                .all(|s| s.decisions == s.hits + s.bypasses + s.loads));
            assert!(stats.iter().any(|s| s.decisions > 0), "{}", workload.name());
        }
        // Only the observed workload attaches the event log.
        let (_, log, _) = replay(&fixture, Workload::StreamObserved, &trace, true);
        assert!(!log.is_empty());
    }

    #[test]
    fn flat_wrapper_counts_match_the_report() {
        let fixture = Fixture::new();
        let trace = small_trace();
        for workload in [Workload::StreamDecode, Workload::StreamSharded] {
            let (report, _, stats) = replay(&fixture, workload, &trace, true);
            let mut total = DecideStats::default();
            for s in &stats {
                total.add(s);
            }
            assert_eq!(stats.len(), workload.shards());
            assert_eq!(total.hits, report.hits);
            assert_eq!(total.bypasses, report.bypasses);
            assert_eq!(total.loads, report.loads);
            assert_eq!(total.evictions, report.evictions);
            assert!(total.useful_loads <= total.loads);
        }
    }

    #[test]
    fn wrapped_memory_replay_matches_and_compiled_equals_streamed() {
        let fixture = Fixture::new();
        let trace = small_trace();
        let demands = WorkloadStats::compute(&trace, &fixture.objects).demands;
        for &fraction in Workload::MemThinCache.fractions() {
            let plain = replay_memory(&fixture, &trace, &demands, fraction, 5, &mut None, false)
                .expect("compiled replay")
                .report;
            let mut probe = Some(Probe::default());
            let timed = replay_memory(&fixture, &trace, &demands, fraction, 5, &mut probe, false)
                .expect("wrapped compiled replay")
                .report;
            let streamed = replay_memory(&fixture, &trace, &demands, fraction, 5, &mut None, true)
                .expect("streamed replay")
                .report;
            assert_eq!(plain, timed);
            assert_eq!(plain, streamed);
            let stats = probe.expect("probe").stats();
            assert_eq!(stats.len(), 1);
            assert_eq!(stats[0].hits, plain.hits);
            assert_eq!(stats[0].loads, plain.loads);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
