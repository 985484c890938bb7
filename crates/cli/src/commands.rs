//! The `byc` subcommands.

use byc_analysis::{
    containment_analysis, locality_analysis, render_cost_table, render_metrics_table,
    render_server_table, render_span_table, render_tier_table, render_window_table,
};
use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Catalog, Granularity, ObjectCatalog};
use byc_core::static_opt::ObjectDemand;
use byc_core::{CachePolicy, ShardPlan, ShardedPolicy};
use byc_federation::{
    build_policy, build_sharded, CostEvent, CostReport, DegradationPolicy, FaultModel, FlakyLinks,
    LinkScoped, NetworkModel, Observer, Outage, OutageWindows, PerServerMultipliers,
    PerServerObserver, PerTierObserver, PolicyKind, Postmortem, QueryWindow, ReplaySession,
    RetryPolicy, SweepOptions, Topology, Uniform,
};
use byc_telemetry::{
    render_postmortems, window_header, window_record, write_chrome_trace, write_metrics,
    EventLogWriter, MetricsFormat, MetricsRegistry, SpanObserver, SpanTracer, TelemetryObserver,
    WindowedRegistry,
};
use byc_types::{Error, Result, ServerId, Tick};
use byc_workload::{
    generate, io as trace_io, Trace, TraceQuery, TraceReader, TraceSpec, WorkloadConfig,
    WorkloadStats,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A parsed `byc` invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Synthesize a trace and write it as JSON-lines.
    GenTrace {
        /// "edr" or "dr1".
        release: String,
        /// Output path.
        out: PathBuf,
        /// Generator seed.
        seed: u64,
        /// Catalog scale (1.0 = full).
        scale: f64,
        /// Override query count (0 = preset).
        queries: usize,
    },
    /// Replay a trace under one policy and print the cost report.
    Run {
        /// What to replay, and over what; shared with `sweep`.
        replay: ReplayArgs,
        /// Policy name (see [`parse_policy`]).
        policy: String,
        /// Cache size as a fraction of the database.
        cache_fraction: f64,
        /// Stream per-decision NDJSON events here (None = no event log).
        trace_events: Option<PathBuf>,
        /// Shard the policy over N object-id ranges, each caching in
        /// its own share of the cache (None = unsharded).
        shards: Option<usize>,
    },
    /// Sweep cache sizes for every policy in the roster.
    Sweep(ReplayArgs),
    /// Workload analyses: containment and schema locality.
    Analyze {
        /// Trace file or "edr"/"dr1".
        trace: String,
        /// Catalog scale.
        scale: f64,
        /// Seed.
        seed: u64,
    },
    /// Print usage.
    Help,
}

/// The arguments `run` and `sweep` share: the trace, the catalog,
/// network, topology and fault model it replays over, and the
/// deterministic streams to write.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayArgs {
    /// Trace file (or "edr"/"dr1" to synthesize on the fly).
    pub trace: String,
    /// "table" or "column".
    pub granularity: String,
    /// Catalog scale: finite and positive.
    pub scale: f64,
    /// Seed for synthesized traces / randomized policies.
    pub seed: u64,
    /// Number of back-end servers (tables spread round-robin).
    pub servers: u32,
    /// Per-server WAN cost multipliers (None = uniform pricing).
    pub multipliers: Option<Vec<f64>>,
    /// Tiered topology spec (None or "flat" = the flat single-tier
    /// WAN; see `--topology` grammar).
    pub topology: Option<String>,
    /// Scope the fault model to one topology link (None = every
    /// link on the fetch path).
    pub fault_link: Option<u32>,
    /// Write a metrics export here; a sweep's covers every point
    /// (None = no export).
    pub metrics: Option<PathBuf>,
    /// Export format for `--metrics`.
    pub metrics_format: MetricsFormat,
    /// Fault-model spec (None = fault-free; see `--faults` grammar).
    pub faults: Option<String>,
    /// Transfer attempts per slice (1 = no retries; 0 is rejected).
    pub retry: u32,
    /// Seed for stochastic fault models (None = the main `--seed`).
    pub fault_seed: Option<u64>,
    /// Degradation fallback when retries are exhausted ("stale"/"fail").
    pub degrade: String,
    /// Write the replay's deterministic span tree as Chrome
    /// trace-event JSON here; a sweep gives every job its own thread
    /// lane in the one file (None = no span trace).
    pub trace_spans: Option<PathBuf>,
    /// Stream a windowed telemetry snapshot every N queries as NDJSON
    /// on stderr; a sweep streams each job's in job order (None = no
    /// stream).
    pub metrics_every: Option<usize>,
    /// Ring depth of the fault flight recorder: keep the last K cost
    /// events per tier and dump postmortems on failed or degraded
    /// queries (None = off).
    pub flight_recorder: Option<usize>,
}

impl ReplayArgs {
    /// Whether any per-replay telemetry stream (`--metrics`,
    /// `--trace-spans`, `--metrics-every`) is on.
    fn observed(&self) -> bool {
        self.metrics.is_some() || self.trace_spans.is_some() || self.metrics_every.is_some()
    }
}

/// Parse a policy name.
///
/// # Errors
///
/// [`Error::InvalidConfig`] for unknown names.
pub fn parse_policy(name: &str) -> Result<PolicyKind> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "rate-profile" | "rateprofile" | "rp" => PolicyKind::RateProfile,
        "onlineby" | "online" => PolicyKind::OnlineBY,
        "onlineby-marking" | "marking" => PolicyKind::OnlineBYMarking,
        "spaceeffby" | "spaceeff" => PolicyKind::SpaceEffBY,
        "gds" => PolicyKind::Gds,
        "gdsp" => PolicyKind::Gdsp,
        "lru" => PolicyKind::Lru,
        "lfu" => PolicyKind::Lfu,
        "lru-k" | "lruk" | "lru2" => PolicyKind::LruK,
        "lff" => PolicyKind::Lff,
        "gd*" | "gdstar" | "gd-star" => PolicyKind::GdStar,
        "static" => PolicyKind::Static,
        "nocache" | "none" => PolicyKind::NoCache,
        other => {
            return Err(Error::InvalidConfig(format!(
                "unknown policy {other:?} (try rate-profile, onlineby, spaceeffby, gds, gdsp, \
                 lru, lfu, lru-k, static, nocache)"
            )))
        }
    })
}

fn parse_granularity(name: &str) -> Result<Granularity> {
    match name.to_ascii_lowercase().as_str() {
        "table" | "tables" => Ok(Granularity::Table),
        "column" | "columns" => Ok(Granularity::Column),
        other => Err(Error::InvalidConfig(format!(
            "unknown granularity {other:?} (expected table or column)"
        ))),
    }
}

/// Build the WAN pricing model for `--cost-multipliers` (uniform when
/// the flag is absent).
fn build_network(multipliers: &Option<Vec<f64>>) -> Result<Box<dyn NetworkModel + Send>> {
    Ok(match multipliers {
        Some(m) => Box::new(PerServerMultipliers::new(m.clone())?),
        None => Box::new(Uniform),
    })
}

/// Parse a `--topology` spec into a tiered [`Topology`]. Grammar:
///
/// * `flat` — no tiers (`None`): the single-tier WAN;
/// * `two-tier[:M]` — a site cache under a regional cache, the inner
///   link priced at `M` times the raw bytes (default 0.25);
/// * `three-tier[:M1,M2]` — site under regional under national, inner
///   links priced at `M1` and `M2` (defaults 0.1 and 0.25).
///
/// The origin link (the top of the hierarchy) is priced by
/// `--cost-multipliers`, exactly as on the flat WAN.
fn parse_topology(spec: &str, multipliers: &Option<Vec<f64>>) -> Result<Option<Topology>> {
    let (shape, params) = match spec.split_once(':') {
        Some((shape, params)) => (shape, Some(params)),
        None => (spec, None),
    };
    let parse_mult = |v: &str| -> Result<f64> {
        v.trim().parse().map_err(|_| {
            Error::InvalidConfig(format!("bad topology link multiplier {v:?} in {spec:?}"))
        })
    };
    match shape.to_ascii_lowercase().as_str() {
        "flat" => {
            if params.is_some() {
                return Err(Error::InvalidConfig(format!(
                    "flat topology takes no parameters, got {spec:?}"
                )));
            }
            Ok(None)
        }
        "two-tier" => {
            let inner = match params {
                Some(p) => parse_mult(p)?,
                None => 0.25,
            };
            Ok(Some(Topology::two_tier(
                inner,
                build_network(multipliers)?,
            )?))
        }
        "three-tier" => {
            let (site, regional) = match params {
                Some(p) => {
                    let (a, b) = p.split_once(',').ok_or_else(|| {
                        Error::InvalidConfig(format!(
                            "three-tier takes two link multipliers (three-tier:M1,M2), got {spec:?}"
                        ))
                    })?;
                    (parse_mult(a)?, parse_mult(b)?)
                }
                None => (0.1, 0.25),
            };
            Ok(Some(Topology::three_tier(
                site,
                regional,
                build_network(multipliers)?,
            )?))
        }
        other => Err(Error::InvalidConfig(format!(
            "unknown topology {other:?} (expected flat, two-tier[:M], or three-tier[:M1,M2])"
        ))),
    }
}

/// Apply `--fault-link` scoping to a parsed fault model: the model only
/// fires on attempts over one topology link; every other link delivers.
fn scope_faults(
    model: Option<Box<dyn FaultModel>>,
    fault_link: Option<u32>,
) -> Result<Option<Box<dyn FaultModel>>> {
    match (model, fault_link) {
        (Some(m), Some(link)) => Ok(Some(Box::new(LinkScoped::new(m, link)))),
        (None, Some(_)) => Err(Error::InvalidConfig(
            "--fault-link needs a fault model (--faults ...)".into(),
        )),
        (m, None) => Ok(m),
    }
}

/// Backoff unit for `--retry`, in query-index ticks: attempt `i` runs at
/// `t + 2^(i-1) - 1`, so a three-attempt budget can ride out an outage
/// window a few queries long.
const RETRY_BACKOFF_BASE: u64 = 1;

fn parse_degradation(name: &str) -> Result<DegradationPolicy> {
    match name.to_ascii_lowercase().as_str() {
        "stale" | "serve-stale" => Ok(DegradationPolicy::ServeStale),
        "fail" => Ok(DegradationPolicy::Fail),
        other => Err(Error::InvalidConfig(format!(
            "unknown degradation {other:?} (expected stale or fail)"
        ))),
    }
}

/// A `--faults` probability: a number within [0, 1] (NaN is not).
fn probability(v: &str) -> Option<f64> {
    v.trim()
        .parse::<f64>()
        .ok()
        .filter(|p| (0.0..=1.0).contains(p))
}

/// Parse a `--faults` spec into a fault model. Grammar:
///
/// * `none` — no fault layer (the exact fault-free path);
/// * `outage:SERVER@START..END[,SERVER@START..END...]` — scheduled
///   per-server downtime in query-index time (half-open windows,
///   `START < END`);
/// * `flaky:p=0.01[,spike=0.05x4]` — seeded per-attempt failure
///   probability, optionally with a cost-spike probability and a
///   multiplier of at least 1. Probabilities lie within [0, 1].
fn parse_faults(spec: &str, seed: u64) -> Result<Option<Box<dyn FaultModel>>> {
    if spec.eq_ignore_ascii_case("none") {
        return Ok(None);
    }
    if let Some(body) = spec.strip_prefix("outage:") {
        let mut windows = Vec::new();
        for part in body.split(',') {
            let window = || {
                let (server, range) = part.split_once('@')?;
                let (from, until) = range.split_once("..")?;
                let outage = Outage {
                    server: ServerId::new(server.trim().parse().ok()?),
                    from: Tick::new(from.trim().parse().ok()?),
                    until: Tick::new(until.trim().parse().ok()?),
                };
                (outage.from < outage.until).then_some(outage)
            };
            windows.push(window().ok_or_else(|| {
                Error::InvalidConfig(format!(
                    "bad outage window {part:?} (expected SERVER@START..END with START < END)"
                ))
            })?);
        }
        return Ok(Some(Box::new(OutageWindows::new(windows))));
    }
    if let Some(body) = spec.strip_prefix("flaky:") {
        let mut failure_p: Option<f64> = None;
        let mut spike_p = 0.0f64;
        let mut spike_multiplier = 1.0f64;
        for part in body.split(',') {
            let part = part.trim();
            if let Some(v) = part.strip_prefix("p=") {
                failure_p = Some(probability(v).ok_or_else(|| {
                    Error::InvalidConfig(format!(
                        "bad flaky failure probability {v:?} (expected a number in [0, 1])"
                    ))
                })?);
            } else if let Some(v) = part.strip_prefix("spike=") {
                let spike = || {
                    let (p, m) = v.split_once('x')?;
                    let m = m
                        .parse::<f64>()
                        .ok()
                        .filter(|m| m.is_finite() && *m >= 1.0)?;
                    Some((probability(p)?, m))
                };
                (spike_p, spike_multiplier) = spike().ok_or_else(|| {
                    Error::InvalidConfig(format!(
                        "bad spike spec {v:?} (expected PROBxMULTIPLIER, PROB in [0, 1] and \
                         MULTIPLIER at least 1, e.g. 0.05x4)"
                    ))
                })?;
            } else {
                return Err(Error::InvalidConfig(format!(
                    "unknown flaky parameter {part:?} (expected p=... or spike=...)"
                )));
            }
        }
        let p = failure_p.ok_or_else(|| {
            Error::InvalidConfig("flaky faults need a failure probability (p=...)".into())
        })?;
        return Ok(Some(Box::new(FlakyLinks::new(
            seed,
            p,
            spike_p,
            spike_multiplier,
        ))));
    }
    Err(Error::InvalidConfig(format!(
        "unknown fault spec {spec:?} (expected none, outage:SERVER@START..END, or flaky:p=...)"
    )))
}

fn parse_release(name: &str) -> Result<SdssRelease> {
    match name.to_ascii_lowercase().as_str() {
        "edr" => Ok(SdssRelease::Edr),
        "dr1" => Ok(SdssRelease::Dr1),
        other => Err(Error::InvalidConfig(format!(
            "unknown release {other:?} (expected edr or dr1)"
        ))),
    }
}

/// The release a trace file's header names, which picks the catalog that
/// prices it: gen-trace writes `"EDR"` or `"DR1"`. Any other name is an
/// error, never a silent default to one release's sizes.
fn header_release(spec: &str, header_name: &str) -> Result<SdssRelease> {
    match header_name {
        "EDR" => Ok(SdssRelease::Edr),
        "DR1" => Ok(SdssRelease::Dr1),
        other => Err(Error::InvalidConfig(format!(
            "trace {spec:?} names release {other:?} in its header (expected \"EDR\" or \"DR1\"), \
             so no catalog can price it"
        ))),
    }
}

/// Load a trace by path, or synthesize the named release.
///
/// Trace files carry yields computed against a catalog at some scale;
/// replaying them against a differently-scaled catalog misprices every
/// bypass decision. The caller's `--scale` must therefore match the scale
/// the trace was generated at; we sanity-check by comparing the trace's
/// mean yield to the catalog size and refuse wildly inconsistent pairs.
fn load_trace(spec: &str, scale: f64, seed: u64, servers: u32) -> Result<(Catalog, Trace)> {
    match parse_release(spec) {
        Ok(release) => {
            let catalog = sdss::build(release, scale, servers);
            let config = match release {
                SdssRelease::Edr => WorkloadConfig::edr(seed),
                SdssRelease::Dr1 => WorkloadConfig::dr1(seed),
            };
            let trace = generate(&catalog, &config)?;
            Ok((catalog, trace))
        }
        Err(_) => {
            // Treat as a file path, priced by the catalog of the release
            // its header names, at the caller's scale.
            let trace = trace_io::read_trace(Path::new(spec))?;
            let catalog = sdss::build(header_release(spec, &trace.name)?, scale, servers);
            check_scale(spec, trace.sequence_cost(), trace.len(), &catalog)?;
            Ok((catalog, trace))
        }
    }
}

/// Guard against replaying a trace against a catalog at the wrong scale
/// (yields would be mispriced by that factor): `demand` is the trace's
/// total yield over `queries` queries.
fn check_scale(
    spec: &str,
    demand: byc_types::Bytes,
    queries: usize,
    catalog: &Catalog,
) -> Result<()> {
    if queries == 0 {
        return Ok(());
    }
    let mean_yield = demand.as_f64() / queries as f64;
    let db = catalog.database_size().as_f64();
    // Matched scales put this ratio around 1e-5..1e-3 for SDSS-like
    // workloads (mean yield is a tiny, scale-free fraction of the
    // database); a >100x departure means the scales disagree.
    let ratio = mean_yield / db;
    if !(1e-7..=1e-2).contains(&ratio) {
        return Err(Error::InvalidConfig(format!(
            "trace {spec:?} looks generated at a different catalog scale \
             (mean yield {:.3e} bytes vs database {:.3e} bytes); \
             pass the --scale used at gen-trace time",
            mean_yield, db
        )));
    }
    Ok(())
}
/// Usage text.
pub const USAGE: &str = "\
byc — bypass-yield caching for scientific database federations

USAGE:
  byc gen-trace <edr|dr1> --out FILE [--seed N] [--scale S] [--queries N]
  byc run <edr|dr1|trace.jsonl> --policy NAME [--cache-fraction F]
          [--trace-events FILE] [--shards N] [REPLAY FLAGS]
  byc sweep <edr|dr1|trace.jsonl> [REPLAY FLAGS]
  byc analyze <edr|dr1|trace.jsonl> [--scale S] [--seed N]
  byc help

REPLAY FLAGS (run and sweep):
          [--granularity table|column] [--scale S] [--seed N]
          [--servers N] [--cost-multipliers A,B,...]
          [--topology flat|two-tier[:M]|three-tier[:M1,M2]] [--fault-link N]
          [--metrics FILE] [--metrics-format prom|json]
          [--trace-spans FILE] [--metrics-every N] [--flight-recorder K]
          [--faults SPEC] [--retry N] [--fault-seed N] [--degrade stale|fail]

POLICIES: rate-profile onlineby onlineby-marking spaceeffby gds gdsp lru
          lfu lru-k lff gdstar static nocache

NETWORK:  --servers spreads tables round-robin over N back-end servers;
          --cost-multipliers prices each server's WAN link (cycled when
          shorter than the server count) and implies --servers when that
          flag is absent. With more than one server, `run` appends a
          per-server WAN breakdown table.

TOPOLOGY: --topology runs the replay over a tiered cache hierarchy, one
          independent cache per tier with bypasses forwarded one hop up:
            flat                      the single-tier WAN (default)
            two-tier[:M]              site under a regional cache; the
                                      inner link costs M per raw byte
                                      (default 0.25)
            three-tier[:M1,M2]        site, regional, national; inner
                                      links cost M1 and M2 (defaults
                                      0.1, 0.25)
          The origin link keeps --cost-multipliers pricing. Each tier's
          cache holds --cache-fraction of the database scaled by the
          tier's capacity factor (1x site, 4x regional, 16x national);
          `run` appends a per-tier breakdown table. --fault-link N
          scopes --faults to topology link N (0 = the site uplink), so a
          warm upper tier can absorb an origin outage.

TELEMETRY: --trace-events streams one schema-versioned NDJSON record per
          decision (query, object, decision, yield, fetch price,
          occupancy); --metrics writes a registry export — Prometheus
          text by default, JSON with --metrics-format json. In `sweep`,
          the registry labels each point `policy@fraction`, appending
          `@fault` when a fault layer is active and `@topology` when a
          tiered topology is (`POLICY@FRACTION@FAULT@TIER` in full);
          per-tier counters inside a point carry a `tier` label. Either
          flag also prints the per-(server, object-class) telemetry table.

OBSERVABILITY: three deterministic streams ride any replay (clocked by
          the query index, never the wall clock, so same seed = same
          bytes):
            --trace-spans FILE   record the phase tree (pipeline setup,
                                 replay loop chunks, per-tier resolve on
                                 topologies) and export it as Chrome
                                 trace-event JSON — open in Perfetto or
                                 chrome://tracing; also prints the span
                                 table. In `sweep`, each job gets its own
                                 thread lane in the one file.
            --metrics-every N    stream one `byc.telemetry.window` NDJSON
                                 record per N queries to stderr and print
                                 the windowed trajectory table. Window
                                 sums reconcile exactly with the cost
                                 report.
            --flight-recorder K  keep a ring of the last K cost events
                                 per tier; when a query fails or degrades
                                 (under --faults), dump an annotated
                                 postmortem of the events leading up to
                                 it, stamped with the fault context.

FAULTS:   --faults injects deterministic WAN faults:
            none                      fault-free (default)
            outage:SERVER@START..END  scheduled downtime in query-index
                                      time, comma-separated windows
            flaky:p=0.01,spike=0.05x4 seeded per-attempt failure
                                      probability + cost-spike prob x mult
          Probabilities lie in [0, 1], a spike multiplier is at least 1,
          and an outage window needs START < END.
          --retry N allows up to N >= 1 attempts per transfer (exponential
          backoff in query-index time; retries are charged to the WAN);
          --fault-seed seeds stochastic models (defaults to --seed);
          --degrade picks the fallback when retries are exhausted: serve
          the stale local copy (stale, default) or fail the slice (fail).

REPLAY:   every replay compiles the trace in chunks (catalog resolution
          and network pricing once per chunk) and walks the compiled
          slices; a sweep compiles once and shares the arena across
          every policy × fraction point. A trace file streams chunk by
          chunk, so a 100M-query file replays in constant memory —
          except under --policy static, whose offline plan needs the
          whole trace's demand profile, so the file loads into memory.
          A trace file decodes on a second thread, one chunk ahead of
          the replay. --shards N splits the object-id space into N
          ranges with one policy instance per range; each shard caches
          in its own share of the cache, so a sharded answer is NOT
          comparable with an unsharded one. N is at most the number of
          cache objects: a shard beyond that would own none. A sharded
          replay takes every telemetry and observability flag an
          unsharded one does.

NUMBERS:  --scale is positive and finite; --retry, --metrics-every,
          --flight-recorder and --shards are positive; every integer
          must fit its field (--servers and --fault-link in 32 bits).
          A value out of range is an error, never truncated.";

/// Flags `run` and `sweep` share: they fill [`ReplayArgs`].
const REPLAY_FLAGS: &[&str] = &[
    "granularity",
    "scale",
    "seed",
    "servers",
    "cost-multipliers",
    "topology",
    "fault-link",
    "metrics",
    "metrics-format",
    "faults",
    "retry",
    "fault-seed",
    "degrade",
    "trace-spans",
    "metrics-every",
    "flight-recorder",
];

/// Flags only `run` takes.
const RUN_FLAGS: &[&str] = &["policy", "cache-fraction", "trace-events", "shards"];

/// The `--name value` pairs of one invocation, read through typed
/// getters that reject a malformed or out-of-range value instead of
/// casting it.
struct Flags(HashMap<String, String>);

impl Flags {
    fn text(&self, name: &str) -> Option<String> {
        self.0.get(name).cloned()
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.0.get(name).map(PathBuf::from)
    }

    fn number(&self, name: &str, default: f64) -> Result<f64> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Error::InvalidConfig(format!("--{name} expects a number, got {v:?}"))),
        }
    }

    /// An integer flag converted to its field's type with `try_from`:
    /// a value that does not fit is an error, never a truncation.
    fn int<T: TryFrom<u64>>(&self, name: &str) -> Result<Option<T>> {
        let Some(v) = self.0.get(name) else {
            return Ok(None);
        };
        let n: u64 = v
            .parse()
            .map_err(|_| Error::InvalidConfig(format!("--{name} expects an integer, got {v:?}")))?;
        T::try_from(n)
            .map(Some)
            .map_err(|_| Error::InvalidConfig(format!("--{name} {n} is out of range")))
    }

    /// `--scale`: the catalog scale every row count is multiplied by.
    fn positive_scale(&self) -> Result<f64> {
        let scale = self.number("scale", 1.0)?;
        if !(scale.is_finite() && scale > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "--scale must be a positive finite number, got {scale}"
            )));
        }
        Ok(scale)
    }

    /// The [`ReplayArgs`] half of a `run` or `sweep` invocation.
    fn replay_args(&self, trace: String) -> Result<ReplayArgs> {
        let multipliers = match self.0.get("cost-multipliers") {
            None => None,
            Some(v) => Some(
                v.split(',')
                    .map(|part| part.trim().parse::<f64>().ok())
                    .collect::<Option<Vec<f64>>>()
                    .ok_or_else(|| {
                        Error::InvalidConfig(format!(
                            "--cost-multipliers expects comma-separated numbers, got {v:?}"
                        ))
                    })?,
            ),
        };
        // --cost-multipliers implies one server per multiplier.
        let servers = match self.int("servers")? {
            Some(n) => n,
            None => multipliers
                .as_ref()
                .map_or(1, |m| u32::try_from(m.len()).unwrap_or(u32::MAX)),
        };
        let metrics_format = match self.0.get("metrics-format") {
            None => MetricsFormat::Prometheus,
            Some(v) => MetricsFormat::parse(v).ok_or_else(|| {
                Error::InvalidConfig(format!("--metrics-format expects prom or json, got {v:?}"))
            })?,
        };
        Ok(ReplayArgs {
            trace,
            granularity: self.text("granularity").unwrap_or_else(|| "column".into()),
            scale: self.positive_scale()?,
            seed: self.int("seed")?.unwrap_or(42),
            servers,
            multipliers,
            topology: self.text("topology"),
            fault_link: self.int("fault-link")?,
            metrics: self.path("metrics"),
            metrics_format,
            faults: self.text("faults"),
            retry: self.int("retry")?.unwrap_or(1),
            fault_seed: self.int("fault-seed")?,
            degrade: self.text("degrade").unwrap_or_else(|| "stale".into()),
            trace_spans: self.path("trace-spans"),
            metrics_every: self.int("metrics-every")?,
            flight_recorder: self.int("flight-recorder")?,
        })
    }
}

/// Parse raw argument strings into a [`Command`].
///
/// # Errors
///
/// [`Error::InvalidConfig`] for malformed invocations.
pub fn parse_args(args: &[String]) -> Result<Command> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    let known: Vec<&str> = match sub {
        "gen-trace" => vec!["out", "seed", "scale", "queries"],
        "run" => [RUN_FLAGS, REPLAY_FLAGS].concat(),
        "sweep" => REPLAY_FLAGS.to_vec(),
        "analyze" => vec!["scale", "seed"],
        _ => Vec::new(),
    };
    let mut positional: Vec<String> = Vec::new();
    let mut flags = Flags(HashMap::new());
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                return Err(Error::InvalidConfig(format!(
                    "unknown flag --{name} for `{sub}` (expected {})",
                    known
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            let value = it
                .next()
                .ok_or_else(|| Error::InvalidConfig(format!("--{name} needs a value")))?;
            flags.0.insert(name.to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    let first = || -> Result<String> {
        positional
            .first()
            .cloned()
            .ok_or_else(|| Error::InvalidConfig("missing trace/release argument".into()))
    };

    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "gen-trace" => Ok(Command::GenTrace {
            release: first()?,
            out: flags
                .path("out")
                .ok_or_else(|| Error::InvalidConfig("gen-trace requires --out FILE".into()))?,
            seed: flags.int("seed")?.unwrap_or(42),
            scale: flags.positive_scale()?,
            queries: flags.int("queries")?.unwrap_or(0),
        }),
        "run" => Ok(Command::Run {
            replay: flags.replay_args(first()?)?,
            policy: flags
                .text("policy")
                .ok_or_else(|| Error::InvalidConfig("run requires --policy NAME".into()))?,
            cache_fraction: flags.number("cache-fraction", 0.15)?,
            trace_events: flags.path("trace-events"),
            shards: flags.int("shards")?,
        }),
        "sweep" => Ok(Command::Sweep(flags.replay_args(first()?)?)),
        "analyze" => Ok(Command::Analyze {
            trace: first()?,
            scale: flags.positive_scale()?,
            seed: flags.int("seed")?.unwrap_or(42),
        }),
        other => Err(Error::InvalidConfig(format!(
            "unknown subcommand {other:?}; try `byc help`"
        ))),
    }
}

/// Counts such as `--retry` and `--metrics-every` are numbers of
/// attempts, queries or events; zero would mean "try never" / "window
/// after no queries", so reject it at the door instead of silently
/// clamping.
fn require_positive<T: PartialEq + From<u8>>(value: Option<T>, flag: &str) -> Result<()> {
    if value == Some(T::from(0)) {
        return Err(Error::InvalidConfig(format!("--{flag} must be positive")));
    }
    Ok(())
}

/// What a replay reads: a resident trace, or a trace file streaming
/// chunk by chunk.
enum Source {
    Resident(Trace),
    Streamed(TraceReader),
}

impl Source {
    fn name(&self) -> &str {
        match self {
            Source::Resident(trace) => &trace.name,
            Source::Streamed(reader) => reader.name(),
        }
    }
}

/// Everything `run` and `sweep` replay over, built once from
/// [`ReplayArgs`].
struct ReplaySetup {
    catalog: Catalog,
    objects: ObjectCatalog,
    /// Per-object demands of a resident trace; a streamed file has
    /// none, which only Static (offline planning) consults.
    demands: Vec<ObjectDemand>,
    /// The named tiered shape, or [`Topology::flat`] over the WAN
    /// pricing model: every replay runs on a topology.
    topology: Topology,
    /// Whether `--topology` named a tiered shape. Titles, label
    /// suffixes, the per-tier table and span tier detail key on it.
    tiered: bool,
    /// The WAN pricing model's name.
    pricing: String,
    faults: Option<Box<dyn FaultModel>>,
    retry: RetryPolicy,
    degradation: DegradationPolicy,
    flight_recorder: Option<usize>,
}

impl ReplaySetup {
    /// Check the shared arguments and build the replay's inputs. A
    /// trace file streams when `stream` is set and loads whole
    /// otherwise; a release name always synthesizes a resident trace.
    /// `pipeline`, when present, gets the trace load and the build as
    /// spans, closing the open "parse trace" span.
    fn new(
        args: &ReplayArgs,
        stream: bool,
        pipeline: Option<&mut SpanTracer>,
    ) -> Result<(ReplaySetup, Source)> {
        require_positive(Some(args.retry), "retry")?;
        require_positive(args.metrics_every, "metrics-every")?;
        require_positive(args.flight_recorder, "flight-recorder")?;
        let granularity = parse_granularity(&args.granularity)?;
        let degradation = parse_degradation(&args.degrade)?;
        let faults = match &args.faults {
            Some(spec) => parse_faults(spec, args.fault_seed.unwrap_or(args.seed))?,
            None => None,
        };
        let faults = scope_faults(faults, args.fault_link)?;
        let tiers = match &args.topology {
            Some(spec) => parse_topology(spec, &args.multipliers)?,
            None => None,
        };
        let network = build_network(&args.multipliers)?;
        let pricing = network.name().to_string();
        let tiered = tiers.is_some();
        let topology = tiers.unwrap_or_else(|| Topology::flat(network));
        let servers = args.servers.max(1);
        let (catalog, source) = if stream && parse_release(&args.trace).is_err() {
            let reader = TraceReader::open(Path::new(&args.trace))?;
            let release = header_release(&args.trace, reader.name())?;
            let catalog = sdss::build(release, args.scale, servers);
            (catalog, Source::Streamed(reader))
        } else {
            let (catalog, trace) = load_trace(&args.trace, args.scale, args.seed, servers)?;
            (catalog, Source::Resident(trace))
        };
        let objects = ObjectCatalog::uniform(&catalog, granularity);
        let (queries, demands) = match &source {
            Source::Resident(trace) => {
                (trace.len(), WorkloadStats::compute(trace, &objects).demands)
            }
            Source::Streamed(reader) => (reader.query_count(), Vec::new()),
        };
        if let Some(t) = pipeline {
            t.arg("queries", queries as u64);
            t.end();
            t.begin("build", "pipeline");
            t.arg("objects", demands.len() as u64);
            t.end();
        }
        let setup = ReplaySetup {
            catalog,
            objects,
            demands,
            topology,
            tiered,
            pricing,
            faults,
            retry: RetryPolicy::new(args.retry, RETRY_BACKOFF_BASE),
            degradation,
            flight_recorder: args.flight_recorder,
        };
        Ok((setup, source))
    }

    /// A session over `source` on this setup's topology, fault layer
    /// and flight recorder; the caller adds policies and observers.
    fn session<'a>(&'a self, source: &'a mut Source) -> ReplaySession<'a> {
        let mut session = match source {
            Source::Resident(trace) => ReplaySession::new(trace, &self.objects),
            Source::Streamed(reader) => ReplaySession::from_reader(reader, &self.objects),
        };
        session = session
            .topology(&self.topology)
            .retry(self.retry)
            .degrade(self.degradation);
        if let Some(model) = self.faults.as_deref() {
            session = session.faults(model);
        }
        if let Some(depth) = self.flight_recorder {
            session = session.flight_recorder(depth);
        }
        session
    }

    /// The ", NAME topology" title note of a tiered replay.
    fn topology_note(&self) -> String {
        if self.tiered {
            format!(", {} topology", self.topology.name())
        } else {
            String::new()
        }
    }
}

/// The rendered flight-recorder postmortems of one replay. Postmortems
/// beyond the recorder's cap were counted but not stored; the dump says
/// how many it is missing.
fn postmortem_dump(report: &CostReport, postmortems: &[Postmortem]) -> String {
    let truncated =
        (report.failed_queries + report.degraded_queries).saturating_sub(postmortems.len() as u64);
    render_postmortems(postmortems, truncated)
}

/// The telemetry streams [`ReplayArgs`] asks for, bundled as one
/// observer: each flag contributes one optional component, all riding
/// the same replay. `run` rides one bundle on its replay and `sweep`
/// one per job ([`SweepOptions::observe`] takes a single observer
/// type per sweep, so the bundle multiplexes the hooks).
struct Streams {
    telemetry: Option<TelemetryObserver>,
    spans: Option<SpanObserver>,
    windows: Option<WindowedRegistry>,
}

impl Streams {
    /// The streams `args` asks for, labelled `label`, with spans on
    /// thread lane `tid`.
    fn new(args: &ReplayArgs, label: &str, tid: u32) -> Streams {
        Streams {
            telemetry: args
                .metrics
                .is_some()
                .then(|| TelemetryObserver::new(label)),
            spans: args
                .trace_spans
                .is_some()
                .then(|| SpanObserver::new(label).with_tid(tid)),
            windows: args
                .metrics_every
                .map(|every| WindowedRegistry::new(label, every)),
        }
    }

    fn parts(&mut self) -> impl Iterator<Item = &mut dyn Observer> {
        self.telemetry
            .iter_mut()
            .map(|o| o as &mut dyn Observer)
            .chain(self.spans.iter_mut().map(|o| o as &mut dyn Observer))
            .chain(self.windows.iter_mut().map(|o| o as &mut dyn Observer))
    }
}

impl Observer for Streams {
    fn on_query_start(&mut self, index: usize, query: &TraceQuery) {
        for obs in self.parts() {
            obs.on_query_start(index, query);
        }
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        for obs in self.parts() {
            obs.on_access(event);
        }
    }

    fn on_query_end(&mut self, index: usize, query: &TraceQuery) {
        for obs in self.parts() {
            obs.on_query_end(index, query);
        }
    }

    fn finish(&mut self, policy: Option<&dyn CachePolicy>) {
        for obs in self.parts() {
            obs.finish(policy);
        }
    }

    fn wants_accesses(&self) -> bool {
        self.telemetry
            .as_ref()
            .is_some_and(Observer::wants_accesses)
            || self.spans.as_ref().is_some_and(Observer::wants_accesses)
            || self.windows.as_ref().is_some_and(Observer::wants_accesses)
    }

    fn warnings(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        for obs in self.parts() {
            out.extend(obs.warnings());
        }
        out
    }
}

/// Execute a command, returning the text to print.
///
/// # Errors
///
/// Propagates configuration, I/O, and generation errors.
pub fn run_command(command: Command) -> Result<String> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::GenTrace {
            release,
            out,
            seed,
            scale,
            queries,
        } => {
            // The spec's write path streams query-by-query through the
            // trace writer, so huge --queries values never materialize.
            let mut spec = TraceSpec::new(parse_release(&release)?)
                .seed(seed)
                .scale(scale)
                .out(&out);
            if queries > 0 {
                spec = spec.queries(queries);
            }
            let summary = spec.write()?;
            Ok(format!(
                "wrote {} ({} queries, sequence cost {})",
                out.display(),
                summary.queries,
                summary.sequence_cost
            ))
        }
        Command::Run {
            replay: args,
            policy,
            cache_fraction,
            trace_events,
            shards,
        } => {
            if cache_fraction <= 0.0 || cache_fraction.is_nan() {
                return Err(Error::InvalidConfig(
                    "--cache-fraction must be positive".into(),
                ));
            }
            require_positive(shards, "shards")?;
            let kind = parse_policy(&policy)?;
            // The pipeline tracer (thread lane 0) brackets the setup
            // phases; the replay loop itself is traced by a
            // `SpanObserver` on lane 1. Ticks are query indexes, so the
            // pre-replay phases render as instants at tick 0.
            let mut pipeline = args.trace_spans.as_ref().map(|_| {
                let mut t = SpanTracer::new();
                t.begin("byc run", "pipeline");
                t.begin("parse trace", "pipeline");
                t
            });
            // A trace file streams: the reader feeds the chunk compiler
            // directly and the trace never materializes. Static is the
            // exception — its offline plan needs the whole trace's demand
            // profile — so it loads the file like a synthesized release.
            let (setup, mut source) =
                ReplaySetup::new(&args, kind != PolicyKind::Static, pipeline.as_mut())?;
            let objects = &setup.objects;
            if let Some(n) = shards.filter(|&n| n > objects.len()) {
                return Err(Error::InvalidConfig(format!(
                    "--shards {n} exceeds the {} cache objects at {} granularity; \
                     a shard beyond that would own no object",
                    objects.len(),
                    objects.granularity().label()
                )));
            }
            // Each tier's cache scales the site fraction by the tier's
            // capacity factor (1 on the flat topology).
            let db = objects.total_size();
            let capacity = db.scale(cache_fraction);
            let tiers = setup.topology.tiers().iter();
            let tier_capacities = tiers.map(|t| db.scale(cache_fraction * t.capacity_scale));
            let (demands, seed) = (&setup.demands, args.seed);
            // Telemetry rides the same replay as the accounting observers;
            // it is attached only when a flag asks for it, so plain runs
            // keep their exact output. The decision log rides the
            // telemetry observer; the window stream writes live during
            // the replay, to stderr, apart from the report on stdout.
            let label = kind.label();
            let mut streams = Streams::new(&args, label, 1);
            if let Some(path) = &trace_events {
                let log = EventLogWriter::create(path, label)?;
                streams.telemetry = Some(TelemetryObserver::new(label).with_event_log(log));
            }
            streams.spans = streams.spans.map(|s| s.with_tier_detail(setup.tiered));
            let stderr = Box::new(std::io::stderr());
            streams.windows = streams.windows.map(|w| w.with_sink(stderr));
            let mut per_server = PerServerObserver::new();
            let mut per_tier = PerTierObserver::new();
            // Declared out here so the session's borrows of the policies
            // outlive the replay.
            let mut tier_policies: Vec<Box<dyn CachePolicy + Send + Sync>>;
            let mut sharded: Vec<ShardedPolicy>;
            let mut session = setup.session(&mut source);
            match shards {
                // Every tier sharded under the same object-range plan.
                Some(n) => {
                    let plan = ShardPlan::new(n, objects.len());
                    sharded = tier_capacities
                        .map(|cap| build_sharded(kind, plan, cap, demands, seed))
                        .collect::<Result<_>>()?;
                    for s in sharded.iter_mut() {
                        session = session.shards(s);
                    }
                }
                // One independent policy instance per tier.
                None => {
                    tier_policies = tier_capacities
                        .map(|cap| build_policy(kind, cap, demands, seed))
                        .collect();
                    for p in tier_policies.iter_mut() {
                        session = session.tier_policy(p.as_mut());
                    }
                }
            }
            // The per-server table prints only with two or more servers;
            // a one-server run keeps the report-only lane.
            if objects.server_count() > 1 {
                session = session.observe(&mut per_server);
            }
            if setup.tiered {
                session = session.observe(&mut per_tier);
            }
            session = session.observe(&mut streams);
            let replay = session.run()?;
            let report = &replay.report;
            let streamed = matches!(source, Source::Streamed(_));
            if streamed {
                // The scale guard `load_trace` applies up front, applied
                // to the demand the streamed replay saw.
                check_scale(
                    &args.trace,
                    report.sequence_cost + report.failed_bytes,
                    report.queries,
                    &setup.catalog,
                )?;
            }
            if let Some(t) = pipeline.as_mut() {
                t.set_tick(report.queries as u64);
                t.close_all();
            }
            let mut out = render_cost_table(
                &format!(
                    "{} on {} ({} caching, cache {:.0}% = {}{})",
                    report.policy,
                    report.trace,
                    report.granularity,
                    cache_fraction * 100.0,
                    capacity,
                    setup.topology_note()
                ),
                std::slice::from_ref(report),
            );
            let _ = writeln!(
                out,
                "hits {} | bypasses {} | loads {} | evictions {} | traffic reduction {:.1}x | byte hit rate {:.1}%",
                report.hits,
                report.bypasses,
                report.loads,
                report.evictions,
                report.reduction_factor(),
                report.byte_hit_rate() * 100.0
            );
            if let Some(n) = shards {
                let _ = writeln!(
                    out,
                    "sharded replay: {n} object-range shard(s), each caching in its own share"
                );
            } else if streamed {
                let _ = writeln!(out, "streamed replay: chunked, constant-memory");
            }
            if let Some(model) = setup.faults.as_deref() {
                let _ = writeln!(
                    out,
                    "faults ({}, degrade {}): retries {} | retried traffic {} | degraded queries {} | failed queries {} | availability {:.2}%",
                    model.name(),
                    setup.degradation.label(),
                    report.retries,
                    report.retried_bytes,
                    report.degraded_queries,
                    report.failed_queries,
                    report.availability() * 100.0
                );
            }
            // Observer warnings (parked telemetry IO errors, ring
            // truncation) surface here rather than failing the run: the
            // replay itself succeeded.
            for w in &replay.warnings {
                let _ = writeln!(out, "warning: {w}");
            }
            if setup.tiered {
                // Tiers the walk never reached still get a (zero) row, so
                // the table always shows the whole hierarchy.
                let topo = &setup.topology;
                let mut rows: Vec<(String, QueryWindow)> = topo
                    .tiers()
                    .iter()
                    .map(|s| (s.name.clone(), QueryWindow::default()))
                    .collect();
                for (t, w) in per_tier.into_windows() {
                    if let Some(row) = rows.get_mut(t as usize) {
                        row.1 = w;
                    }
                }
                let _ = writeln!(out);
                let _ = write!(
                    out,
                    "{}",
                    render_tier_table(
                        &format!("per-tier breakdown ({} topology)", topo.name()),
                        &rows,
                    )
                );
            }
            let server_costs = per_server.into_costs();
            if server_costs.len() > 1 {
                let _ = writeln!(out);
                let _ = write!(
                    out,
                    "{}",
                    render_server_table(
                        &format!("per-server WAN breakdown ({} pricing)", setup.pricing),
                        &server_costs,
                    )
                );
            }
            if !replay.postmortems.is_empty() {
                let _ = writeln!(out);
                out.push_str(&postmortem_dump(report, &replay.postmortems));
            }
            if let (Some(path), Some(obs)) = (&args.trace_spans, streams.spans) {
                let tracer = obs.into_tracer();
                let mut threads: Vec<(&SpanTracer, &str)> = Vec::new();
                if let Some(p) = pipeline.as_ref() {
                    threads.push((p, "pipeline"));
                }
                threads.push((&tracer, "replay loop"));
                write_chrome_trace(path, threads.iter().copied())?;
                let _ = writeln!(out, "\nwrote span trace to {}", path.display());
                // The table shows every lane the file carries: pipeline
                // setup phases first, then the replay loop's chunk tree.
                let spans: Vec<byc_telemetry::Span> = threads
                    .iter()
                    .flat_map(|(t, _)| t.spans().iter().cloned())
                    .collect();
                let _ = write!(
                    out,
                    "{}",
                    render_span_table("replay phase spans (ticks = query index)", &spans)
                );
            }
            if let Some(reg) = streams.windows {
                let _ = writeln!(out);
                let _ = write!(
                    out,
                    "{}",
                    render_window_table(
                        &format!(
                            "windowed telemetry (every {} queries; NDJSON on stderr)",
                            reg.every()
                        ),
                        reg.snapshots(),
                    )
                );
            }
            if let Some(t) = streams.telemetry {
                let (snapshot, io) = t.into_parts();
                io?;
                let mut registry = MetricsRegistry::new();
                registry.absorb(snapshot);
                if let Some(path) = &args.metrics {
                    write_metrics(&registry, args.metrics_format, path)?;
                    let _ = writeln!(
                        out,
                        "\nwrote metrics ({}) to {}",
                        args.metrics_format.label(),
                        path.display()
                    );
                }
                if let Some(path) = &trace_events {
                    let _ = writeln!(out, "wrote decision events to {}", path.display());
                }
                let _ = writeln!(out);
                let _ = write!(
                    out,
                    "{}",
                    render_metrics_table("telemetry by (server, object class)", &registry)
                );
            }
            Ok(out)
        }
        Command::Sweep(args) => {
            let (setup, mut source) = ReplaySetup::new(&args, false, None)?;
            let fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0];
            let policies = byc_federation::policy_roster();
            // Fault-aware points carry the model name in their label, and
            // tiered points the topology name, so faulted/fault-free and
            // flat/tiered exports never merge (POLICY@FRACTION@FAULT@TIER;
            // flat fault-free labels stay plain POLICY@FRACTION).
            let mut suffix = setup
                .faults
                .as_deref()
                .map(|m| format!("@{}", m.name()))
                .unwrap_or_default();
            if setup.tiered {
                let _ = write!(suffix, "@{}", setup.topology.name());
            }
            // One span-trace thread lane per job: lane 0 is reserved for
            // `run`'s pipeline lane, and `make` runs once per job on this
            // thread in grid order, so jobs take lanes 1, 2, ...
            let lanes = Cell::new(0u32);
            // One label per sweep point, so distinct (policy, fraction)
            // cells never merge in any export.
            let make = |kind: PolicyKind, fraction: f64| {
                lanes.set(lanes.get().saturating_add(1));
                let label = format!("{}@{:.2}{suffix}", kind.label(), fraction);
                Streams::new(&args, &label, lanes.get())
            };
            let mut observers = Vec::new();
            let options = SweepOptions::new(&policies, &fractions, &setup.demands, args.seed);
            let session = setup.session(&mut source);
            // Only pay for observers when a flag asked for them; a bare
            // sweep replays into the report sink alone.
            let points = if args.observed() {
                session.sweep(options.observe(&make, &mut observers))?
            } else {
                session.sweep(options)?
            };
            // Per-point output (warnings, postmortems, span-trace note)
            // follows the table; window streams go to stderr post-hoc in
            // job order, so records never interleave across workers.
            let mut extra = String::new();
            let mut registry = MetricsRegistry::new();
            let mut tracers: Vec<(SpanTracer, String)> = Vec::new();
            let mut observers = observers.into_iter();
            for point in &points {
                let label = format!("{}@{:.2}", point.policy, point.cache_fraction);
                for w in &point.warnings {
                    let _ = writeln!(extra, "warning: {label}: {w}");
                }
                if !point.postmortems.is_empty() {
                    let _ = writeln!(extra, "postmortems for {label}:");
                    extra.push_str(&postmortem_dump(&point.report, &point.postmortems));
                }
                let Some(observer) = observers.next() else {
                    continue;
                };
                if let Some(t) = observer.telemetry {
                    let (snapshot, io) = t.into_parts();
                    io?;
                    registry.absorb(snapshot);
                }
                if let Some(s) = observer.spans {
                    tracers.push((s.into_tracer(), label));
                }
                if let Some(w) = observer.windows {
                    eprintln!("{}", window_header(w.policy(), w.every()));
                    for snapshot in w.snapshots() {
                        eprintln!("{}", window_record(snapshot));
                    }
                }
            }
            if let Some(path) = &args.metrics {
                write_metrics(&registry, args.metrics_format, path)?;
            }
            if let Some(path) = &args.trace_spans {
                write_chrome_trace(path, tracers.iter().map(|(t, l)| (t, l.as_str())))?;
                let _ = writeln!(
                    extra,
                    "wrote span trace ({} sweep jobs) to {}",
                    tracers.len(),
                    path.display()
                );
            }
            let mut out = format!(
                "total WAN cost (GB) vs cache size, {} caching, trace {}{}\n",
                setup.objects.granularity().label(),
                source.name(),
                setup.topology_note()
            );
            let _ = write!(out, "{:16}", "% of DB");
            for f in fractions {
                let _ = write!(out, " {:>9.0}", f * 100.0);
            }
            let _ = writeln!(out);
            // `sweep` returns the points policy-major, fraction-minor:
            // one row per policy.
            for (kind, row) in policies.iter().zip(points.chunks(fractions.len())) {
                let _ = write!(out, "{:16}", kind.label());
                for p in row {
                    let _ = write!(out, " {:>9.1}", p.report.total_cost().as_f64() / 1e9);
                }
                let _ = writeln!(out);
            }
            if let Some(path) = &args.metrics {
                let _ = writeln!(
                    out,
                    "wrote metrics ({}) to {}",
                    args.metrics_format.label(),
                    path.display()
                );
            }
            out.push_str(&extra);
            Ok(out)
        }
        Command::Analyze { trace, scale, seed } => {
            let (catalog, trace) = load_trace(&trace, scale, seed, 1)?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "trace {}: {} queries, sequence cost {}",
                trace.name,
                trace.len(),
                trace.sequence_cost()
            );
            let window = 50.min(trace.len());
            let containment = containment_analysis(&trace, trace.len() / 2, window);
            let _ = writeln!(
                out,
                "containment (window {window}): {} distinct keys, reuse {:.1}%, contained queries {:.1}%",
                containment.distinct_keys,
                containment.reuse_rate * 100.0,
                containment.contained_queries * 100.0
            );
            for g in [Granularity::Column, Granularity::Table] {
                let objects = ObjectCatalog::uniform(&catalog, g);
                let loc = locality_analysis(&trace, &objects);
                let _ = writeln!(
                    out,
                    "{} locality: {}/{} touched, top-10 share {:.1}%, mean reuse gap {:.1}",
                    g.label(),
                    loc.touched,
                    loc.universe,
                    loc.top10_share * 100.0,
                    loc.mean_reuse_gap
                );
                let (gaps, sorted) = byc_analysis::gap_analysis(&trace, &objects);
                let recommended = gaps
                    .recommended_cutoff(&sorted, 0.01)
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| ">10000".into());
                let _ = writeln!(
                    out,
                    "{} gaps: p50 {} p90 {} p99 {} max {}; episode cutoff keeping <1% splits: {}",
                    g.label(),
                    gaps.p50,
                    gaps.p90,
                    gaps.p99,
                    gaps.max,
                    recommended
                );
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_types::rng::SplitMix64;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert!(run_command(Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_rejected() {
        let err = parse_args(&args(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"));
    }

    #[test]
    fn policy_names_parse() {
        assert_eq!(
            parse_policy("rate-profile").unwrap(),
            PolicyKind::RateProfile
        );
        assert_eq!(parse_policy("RP").unwrap(), PolicyKind::RateProfile);
        assert_eq!(parse_policy("GDS").unwrap(), PolicyKind::Gds);
        assert_eq!(parse_policy("lru2").unwrap(), PolicyKind::LruK);
        assert!(parse_policy("magic").is_err());
    }

    #[test]
    fn gen_trace_requires_out() {
        let err = parse_args(&args(&["gen-trace", "edr"])).unwrap_err();
        assert!(err.to_string().contains("--out"));
    }

    #[test]
    fn run_parses_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--granularity",
            "table",
            "--cache-fraction",
            "0.3",
            "--scale",
            "0.001",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        trace,
                        granularity,
                        scale,
                        seed,
                        servers,
                        multipliers,
                        topology,
                        fault_link,
                        metrics,
                        metrics_format,
                        faults,
                        retry,
                        fault_seed,
                        degrade,
                        trace_spans,
                        metrics_every,
                        flight_recorder,
                    },
                policy,
                cache_fraction,
                trace_events,
                shards,
            } => {
                assert_eq!(trace, "edr");
                assert_eq!(policy, "gds");
                assert_eq!(granularity, "table");
                assert!((cache_fraction - 0.3).abs() < 1e-12);
                assert!((scale - 0.001).abs() < 1e-12);
                assert_eq!(seed, 42);
                assert_eq!(servers, 1);
                assert_eq!(multipliers, None);
                assert_eq!(topology, None);
                assert_eq!(fault_link, None);
                assert_eq!(trace_events, None);
                assert_eq!(metrics, None);
                assert_eq!(metrics_format, MetricsFormat::Prometheus);
                assert_eq!(faults, None);
                assert_eq!(retry, 1);
                assert_eq!(fault_seed, None);
                assert_eq!(degrade, "stale");
                assert_eq!(trace_spans, None);
                assert_eq!(metrics_every, None);
                assert_eq!(flight_recorder, None);
                assert_eq!(shards, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn network_flags_parse() {
        // --cost-multipliers implies --servers from its length.
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--cost-multipliers",
            "1,2,4,8",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        servers,
                        multipliers,
                        ..
                    },
                ..
            } => {
                assert_eq!(servers, 4);
                assert_eq!(multipliers, Some(vec![1.0, 2.0, 4.0, 8.0]));
            }
            other => panic!("unexpected {other:?}"),
        }
        // An explicit --servers wins over the implied count.
        let cmd = parse_args(&args(&[
            "sweep",
            "edr",
            "--servers",
            "2",
            "--cost-multipliers",
            "1,3",
        ]))
        .unwrap();
        match cmd {
            Command::Sweep(ReplayArgs {
                servers,
                multipliers,
                ..
            }) => {
                assert_eq!(servers, 2);
                assert_eq!(multipliers, Some(vec![1.0, 3.0]));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Malformed multiplier lists are rejected at parse time.
        let err = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--cost-multipliers",
            "1,x",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("comma-separated"), "{err}");
    }

    #[test]
    fn run_with_network_prints_server_table() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "nocache",
            "--scale",
            "0.001",
            "--cost-multipliers",
            "1,2,4",
        ]))
        .unwrap();
        let out = run_command(cmd).unwrap();
        assert!(out.contains("per-server WAN breakdown"), "{out}");
        assert!(out.contains("S0"));
        assert!(out.contains("S2"));
        assert!(out.contains("total"));
    }

    #[test]
    fn run_executes_small_scale() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "rate-profile",
            "--scale",
            "0.001",
        ]))
        .unwrap();
        // Shrink the trace through a tiny scale; query count stays preset
        // but generation is fast at this scale.
        let out = run_command(cmd).unwrap();
        assert!(out.contains("Rate-Profile"));
        assert!(out.contains("traffic reduction"));
    }

    #[test]
    fn removed_replay_mode_flags_are_unknown() {
        // Replay modes are not flags: every replay compiles in chunks,
        // files stream, sweeps compile once.
        for argv in [
            &["run", "edr", "--policy", "gds", "--compiled"][..],
            &["run", "edr", "--policy", "gds", "--streaming"],
            &["run", "edr", "--policy", "gds", "--chunk-size", "512"],
            &["sweep", "edr", "--compiled"],
            &["sweep", "edr", "--streaming"],
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert!(err.to_string().contains("unknown flag"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn compiled_run_output_matches_reference() {
        let out = run_command(
            parse_args(&args(&[
                "run", "edr", "--policy", "gds", "--scale", "0.001",
            ]))
            .unwrap(),
        )
        .unwrap();
        // The same replay through the uncompiled engine renders the same
        // report table: compilation changes speed, never output.
        let catalog = sdss::build(SdssRelease::Edr, 0.001, 1);
        let trace = generate(&catalog, &WorkloadConfig::edr(42)).unwrap();
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let demands = WorkloadStats::compute(&trace, &objects).demands;
        let capacity = objects.total_size().scale(0.15);
        let mut policy = build_policy(PolicyKind::Gds, capacity, &demands, 42);
        let mut cost = byc_federation::CostObserver::new(policy.name(), &trace.name, "column");
        byc_federation::ReplayEngine::new(&objects).replay(
            &trace,
            policy.as_mut(),
            &mut [&mut cost],
        );
        let report = cost.into_report();
        let expected = render_cost_table(
            &format!(
                "{} on {} ({} caching, cache {:.0}% = {})",
                report.policy, report.trace, report.granularity, 15.0, capacity
            ),
            std::slice::from_ref(&report),
        );
        assert!(out.starts_with(&expected), "{out}\nvs\n{expected}");
    }

    #[test]
    fn bad_cache_fraction_rejected() {
        let cmd = Command::Run {
            replay: ReplayArgs {
                trace: "edr".into(),
                granularity: "table".into(),
                scale: 0.001,
                seed: 1,
                servers: 1,
                multipliers: None,
                topology: None,
                fault_link: None,
                metrics: None,
                metrics_format: MetricsFormat::Prometheus,
                faults: None,
                retry: 1,
                fault_seed: None,
                degrade: "stale".into(),
                trace_spans: None,
                metrics_every: None,
                flight_recorder: None,
            },
            policy: "gds".into(),
            cache_fraction: 0.0,
            trace_events: None,
            shards: None,
        };
        assert!(run_command(cmd).is_err());
    }

    #[test]
    fn gen_trace_roundtrip() {
        let mut path = std::env::temp_dir();
        path.push(format!("byc-cli-trace-{}.jsonl", std::process::id()));
        let cmd = Command::GenTrace {
            release: "edr".into(),
            out: path.clone(),
            seed: 7,
            scale: 0.001,
            queries: 200,
        };
        let out = run_command(cmd).unwrap();
        assert!(out.contains("200 queries"));
        let trace = trace_io::read_trace(&path).unwrap();
        assert_eq!(trace.len(), 200);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_runs() {
        let cmd = Command::Analyze {
            trace: "edr".into(),
            scale: 0.001,
            seed: 3,
        };
        // Full preset query count at tiny scale is fast enough.
        let out = run_command(cmd).unwrap();
        assert!(out.contains("containment"));
        assert!(out.contains("column locality"));
    }

    #[test]
    fn unknown_flags_rejected() {
        let err = parse_args(&args(&["run", "edr", "--cache-fracton", "0.5"])).unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --cache-fracton"),
            "{err}"
        );
        let err = parse_args(&args(&["gen-trace", "edr", "--policy", "gds"])).unwrap_err();
        assert!(err.to_string().contains("unknown flag --policy"), "{err}");
    }

    #[test]
    fn scale_mismatch_trace_rejected() {
        // Generate a tiny-scale trace, then replay it against the default
        // full-scale catalog: the guard must refuse.
        let mut path = std::env::temp_dir();
        path.push(format!("byc-cli-mismatch-{}.jsonl", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: path.clone(),
            seed: 7,
            scale: 1e-4,
            queries: 100,
        })
        .unwrap();
        let err = run_command(Command::Run {
            replay: ReplayArgs {
                trace: path.to_string_lossy().into_owned(),
                granularity: "table".into(),
                scale: 1.0, // wrong: trace was generated at 1e-4
                seed: 7,
                servers: 1,
                multipliers: None,
                topology: None,
                fault_link: None,
                metrics: None,
                metrics_format: MetricsFormat::Prometheus,
                faults: None,
                retry: 1,
                fault_seed: None,
                degrade: "stale".into(),
                trace_spans: None,
                metrics_every: None,
                flight_recorder: None,
            },
            policy: "gds".into(),
            cache_fraction: 0.5,
            trace_events: None,
            shards: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains("different catalog scale"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn granularity_parse_errors() {
        assert!(parse_granularity("row").is_err());
        assert!(parse_release("dr9").is_err());
    }

    #[test]
    fn telemetry_flags_parse() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--trace-events",
            "events.ndjson",
            "--metrics",
            "metrics.json",
            "--metrics-format",
            "json",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        metrics,
                        metrics_format,
                        ..
                    },
                trace_events,
                ..
            } => {
                assert_eq!(trace_events, Some(PathBuf::from("events.ndjson")));
                assert_eq!(metrics, Some(PathBuf::from("metrics.json")));
                assert_eq!(metrics_format, MetricsFormat::Json);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&["sweep", "edr", "--metrics", "sweep.prom"])).unwrap();
        match cmd {
            Command::Sweep(ReplayArgs {
                metrics,
                metrics_format,
                ..
            }) => {
                assert_eq!(metrics, Some(PathBuf::from("sweep.prom")));
                assert_eq!(metrics_format, MetricsFormat::Prometheus);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--metrics",
            "m",
            "--metrics-format",
            "xml",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("prom or json"), "{err}");
    }

    #[test]
    fn run_writes_event_log_and_metrics() {
        let dir = std::env::temp_dir();
        let events = dir.join(format!("byc-cli-events-{}.ndjson", std::process::id()));
        let metrics = dir.join(format!("byc-cli-metrics-{}.json", std::process::id()));
        let out = run_command(Command::Run {
            replay: ReplayArgs {
                trace: "edr".into(),
                granularity: "table".into(),
                scale: 0.001,
                seed: 9,
                servers: 2,
                multipliers: Some(vec![1.0, 3.0]),
                topology: None,
                fault_link: None,
                metrics: Some(metrics.clone()),
                metrics_format: MetricsFormat::Json,
                faults: None,
                retry: 1,
                fault_seed: None,
                degrade: "stale".into(),
                trace_spans: None,
                metrics_every: None,
                flight_recorder: None,
            },
            policy: "spaceeffby".into(),
            cache_fraction: 0.3,
            trace_events: Some(events.clone()),
            shards: None,
        })
        .unwrap();
        assert!(out.contains("wrote decision events to"), "{out}");
        assert!(out.contains("wrote metrics (json) to"), "{out}");
        assert!(out.contains("telemetry by (server, object class)"), "{out}");

        // The event log replays to the same totals the cost table printed.
        let log = byc_telemetry::EventLog::read_file(&events).unwrap();
        assert_eq!(log.policy, "SpaceEffBY");
        assert!(!log.events.is_empty());
        let totals = log.totals();
        assert_eq!(
            totals.hits + totals.bypasses + totals.loads,
            log.events.len() as u64
        );

        // The JSON export parses and carries the same policy label.
        let text = std::fs::read_to_string(&metrics).unwrap();
        let value = byc_types::json::Value::parse(&text).unwrap();
        assert!(text.contains("byc.telemetry.metrics"));
        assert!(text.contains("SpaceEffBY"));
        drop(value);

        std::fs::remove_file(&events).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn run_metrics_prometheus_format() {
        let dir = std::env::temp_dir();
        let metrics = dir.join(format!("byc-cli-metrics-{}.prom", std::process::id()));
        let out = run_command(Command::Run {
            replay: ReplayArgs {
                trace: "edr".into(),
                granularity: "table".into(),
                scale: 0.001,
                seed: 9,
                servers: 1,
                multipliers: None,
                topology: None,
                fault_link: None,
                metrics: Some(metrics.clone()),
                metrics_format: MetricsFormat::Prometheus,
                faults: None,
                retry: 1,
                fault_seed: None,
                degrade: "stale".into(),
                trace_spans: None,
                metrics_every: None,
                flight_recorder: None,
            },
            policy: "gds".into(),
            cache_fraction: 0.3,
            trace_events: None,
            shards: None,
        })
        .unwrap();
        assert!(out.contains("wrote metrics (prom) to"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("# TYPE byc_hits_total counter"), "{text}");
        assert!(text.contains("policy=\"GDS\""), "{text}");
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn fault_flags_parse() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--faults",
            "flaky:p=0.01,spike=0.05x4",
            "--retry",
            "3",
            "--fault-seed",
            "7",
            "--degrade",
            "fail",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        faults,
                        retry,
                        fault_seed,
                        degrade,
                        ..
                    },
                ..
            } => {
                assert_eq!(faults.as_deref(), Some("flaky:p=0.01,spike=0.05x4"));
                assert_eq!(retry, 3);
                assert_eq!(fault_seed, Some(7));
                assert_eq!(degrade, "fail");
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&["sweep", "edr", "--faults", "outage:0@10..20"])).unwrap();
        match cmd {
            Command::Sweep(ReplayArgs {
                faults,
                retry,
                fault_seed,
                degrade,
                ..
            }) => {
                assert_eq!(faults.as_deref(), Some("outage:0@10..20"));
                assert_eq!(retry, 1);
                assert_eq!(fault_seed, None);
                assert_eq!(degrade, "stale");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fault_specs_parse_and_reject() {
        // none → no fault layer.
        assert!(parse_faults("none", 1).unwrap().is_none());
        // Outage windows, including multiple.
        let model = parse_faults("outage:0@10..20,1@5..8", 1).unwrap().unwrap();
        assert_eq!(model.name(), "outage");
        // Flaky links, with and without spikes.
        let model = parse_faults("flaky:p=0.1", 9).unwrap().unwrap();
        assert_eq!(model.name(), "flaky");
        let model = parse_faults("flaky:p=0.1,spike=0.05x4", 9)
            .unwrap()
            .unwrap();
        assert_eq!(model.name(), "flaky");
        // The ends of each range are accepted.
        for edge in ["flaky:p=0", "flaky:p=1,spike=1x1", "flaky:p=0.5,spike=0x8"] {
            assert!(parse_faults(edge, 1).is_ok(), "{edge} should parse");
        }
        // Malformed specs are rejected with the offending fragment.
        for bad in [
            "outage:0@10",
            "outage:x@1..2",
            "flaky:spike=0.05x4",
            "flaky:p=x",
            "flaky:frob=1",
            "chaos",
            // Probabilities are finite and within [0, 1].
            "flaky:p=nan",
            "flaky:p=inf",
            "flaky:p=2",
            "flaky:p=-1",
            "flaky:p=0.1,spike=2x4",
            "flaky:p=0.1,spike=nanx4",
            // Spike multipliers are finite and at least 1.
            "flaky:p=0.1,spike=0.1x0.5",
            "flaky:p=0.1,spike=0.1x-2",
            "flaky:p=0.1,spike=0.1xnan",
            "flaky:p=0.1,spike=0.1xinf",
            // Outage windows need START < END.
            "outage:0@200..100",
            "outage:0@5..5",
            "outage:0@1..2,1@9..3",
        ] {
            let err = parse_faults(bad, 1).err();
            assert!(
                matches!(err, Some(Error::InvalidConfig(_))),
                "{bad} should be rejected"
            );
        }
        assert!(parse_degradation("stale").is_ok());
        assert!(parse_degradation("fail").is_ok());
        assert!(parse_degradation("shrug").is_err());
    }

    #[test]
    fn run_with_outage_reports_fault_columns() {
        let out = run_command(Command::Run {
            replay: ReplayArgs {
                trace: "edr".into(),
                granularity: "table".into(),
                scale: 0.001,
                seed: 5,
                servers: 1,
                multipliers: None,
                topology: None,
                fault_link: None,
                metrics: None,
                metrics_format: MetricsFormat::Prometheus,
                faults: Some("outage:0@0..50".into()),
                retry: 1,
                fault_seed: None,
                degrade: "fail".into(),
                trace_spans: None,
                metrics_every: None,
                flight_recorder: None,
            },
            policy: "nocache".into(),
            cache_fraction: 0.3,
            trace_events: None,
            shards: None,
        })
        .unwrap();
        assert!(out.contains("faults (outage, degrade fail)"), "{out}");
        assert!(out.contains("failed queries"), "{out}");
    }

    #[test]
    fn topology_flags_parse() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "lru",
            "--topology",
            "three-tier:0.1,0.25",
            "--faults",
            "outage:0@10..20",
            "--fault-link",
            "2",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        topology,
                        fault_link,
                        ..
                    },
                ..
            } => {
                assert_eq!(topology.as_deref(), Some("three-tier:0.1,0.25"));
                assert_eq!(fault_link, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&["sweep", "edr", "--topology", "two-tier"])).unwrap();
        match cmd {
            Command::Sweep(ReplayArgs {
                topology,
                fault_link,
                ..
            }) => {
                assert_eq!(topology.as_deref(), Some("two-tier"));
                assert_eq!(fault_link, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn topology_specs_parse_and_reject() {
        assert!(parse_topology("flat", &None).unwrap().is_none());
        let topo = parse_topology("two-tier", &None).unwrap().unwrap();
        assert_eq!(topo.depth(), 2);
        let topo = parse_topology("two-tier:0.5", &None).unwrap().unwrap();
        assert_eq!(topo.name(), "two-tier");
        let topo = parse_topology("three-tier:0.1,0.25", &Some(vec![1.0, 2.0]))
            .unwrap()
            .unwrap();
        assert_eq!(topo.depth(), 3);
        for bad in [
            "flat:1",
            "two-tier:x",
            "three-tier:0.1",
            "three-tier:a,b",
            "ring",
        ] {
            assert!(parse_topology(bad, &None).is_err(), "{bad} should reject");
        }
        // --fault-link without a fault model is rejected.
        assert!(scope_faults(None, Some(1)).is_err());
    }

    #[test]
    fn flat_topology_flag_output_matches_no_flag() {
        // `--topology flat` must be the exact legacy path, not a
        // degenerate tiered replay, so outputs are byte-identical.
        let run = |extra: &[&str]| {
            let mut argv = vec!["run", "edr", "--policy", "gds", "--scale", "0.001"];
            argv.extend_from_slice(extra);
            run_command(parse_args(&args(&argv)).unwrap()).unwrap()
        };
        assert_eq!(run(&[]), run(&["--topology", "flat"]));
    }

    #[test]
    fn three_tier_compiled_run_exports_per_tier_metrics() {
        // The issue's acceptance criterion: a three-tier compiled SDSS
        // replay runs end-to-end from the CLI and emits per-tier
        // hit-rate and WAN-cost columns in both export formats.
        let dir = std::env::temp_dir();
        let prom = dir.join(format!("byc-cli-tier-{}.prom", std::process::id()));
        let json = dir.join(format!("byc-cli-tier-{}.json", std::process::id()));
        let run = |path: &std::path::Path, format: MetricsFormat| {
            run_command(Command::Run {
                replay: ReplayArgs {
                    trace: "dr1".into(),
                    granularity: "table".into(),
                    scale: 0.001,
                    seed: 11,
                    servers: 2,
                    multipliers: Some(vec![1.0, 2.0]),
                    topology: Some("three-tier".into()),
                    fault_link: None,
                    metrics: Some(path.to_path_buf()),
                    metrics_format: format,
                    faults: None,
                    retry: 1,
                    fault_seed: None,
                    degrade: "stale".into(),
                    trace_spans: None,
                    metrics_every: None,
                    flight_recorder: None,
                },
                policy: "rate-profile".into(),
                cache_fraction: 0.05,
                trace_events: None,
                shards: None,
            })
            .unwrap()
        };
        let out = run(&prom, MetricsFormat::Prometheus);
        assert!(out.contains("three-tier topology"), "{out}");
        assert!(out.contains("per-tier breakdown"), "{out}");
        assert!(out.contains("site"), "{out}");
        assert!(out.contains("regional"), "{out}");
        assert!(out.contains("national"), "{out}");
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("byc_relay_cost_bytes_total"), "{text}");
        assert!(text.contains("tier=\"0\""), "{text}");
        assert!(
            text.contains("tier=\"1\"") || text.contains("tier=\"2\""),
            "upper tiers should appear in the export: {text}"
        );

        let out = run(&json, MetricsFormat::Json);
        assert!(out.contains("wrote metrics (json)"), "{out}");
        let text = std::fs::read_to_string(&json).unwrap();
        let value = byc_types::json::Value::parse(&text).unwrap();
        let mut tiers_seen = std::collections::BTreeSet::new();
        for policy in value["policies"].as_array().unwrap() {
            for series in policy["series"].as_array().unwrap() {
                tiers_seen.insert(series["tier"].as_u64().unwrap());
                assert!(series["byc_relay_cost_bytes_total"].as_u64().is_some());
                assert!(series["byc_hits_total"].as_u64().is_some());
            }
        }
        assert!(
            tiers_seen.len() > 1,
            "expected multiple tiers: {tiers_seen:?}"
        );

        std::fs::remove_file(&prom).ok();
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn two_tier_sweep_labels_carry_topology_name() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("byc-cli-topo-sweep-{}.jsonl", std::process::id()));
        let metrics = dir.join(format!("byc-cli-topo-sweep-{}.prom", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: trace.clone(),
            seed: 5,
            scale: 0.001,
            queries: 150,
        })
        .unwrap();
        let out = run_command(Command::Sweep(ReplayArgs {
            trace: trace.to_string_lossy().into_owned(),
            granularity: "table".into(),
            scale: 0.001,
            seed: 5,
            servers: 1,
            multipliers: None,
            topology: Some("two-tier".into()),
            fault_link: None,
            metrics: Some(metrics.clone()),
            metrics_format: MetricsFormat::Prometheus,
            faults: None,
            retry: 1,
            fault_seed: None,
            degrade: "stale".into(),
            trace_spans: None,
            metrics_every: None,
            flight_recorder: None,
        }))
        .unwrap();
        assert!(out.contains("two-tier topology"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            text.contains("@two-tier"),
            "labels should carry the topology name"
        );
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn observability_flags_parse_and_reject_zero() {
        let cmd = parse_args(&args(&[
            "run",
            "edr",
            "--policy",
            "gds",
            "--trace-spans",
            "spans.json",
            "--metrics-every",
            "64",
            "--flight-recorder",
            "8",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay:
                    ReplayArgs {
                        trace_spans,
                        metrics_every,
                        flight_recorder,
                        ..
                    },
                shards,
                ..
            } => {
                assert_eq!(trace_spans, Some(PathBuf::from("spans.json")));
                assert_eq!(metrics_every, Some(64));
                assert_eq!(flight_recorder, Some(8));
                assert_eq!(shards, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&args(&["sweep", "edr", "--metrics-every", "128"])).unwrap();
        match cmd {
            Command::Sweep(ReplayArgs { metrics_every, .. }) => {
                assert_eq!(metrics_every, Some(128))
            }
            other => panic!("unexpected {other:?}"),
        }
        // Zero windows / zero ring depth are configuration errors.
        for flag in ["--metrics-every", "--flight-recorder"] {
            let cmd = parse_args(&args(&[
                "run", "edr", "--policy", "gds", "--scale", "0.001", flag, "0",
            ]))
            .unwrap();
            let err = run_command(cmd).unwrap_err();
            assert!(err.to_string().contains("must be positive"), "{err}");
        }
        // The flags are unknown outside run/sweep.
        assert!(parse_args(&args(&["analyze", "edr", "--trace-spans", "x"])).is_err());
    }

    #[test]
    fn run_writes_span_trace_and_window_table() {
        let dir = std::env::temp_dir();
        let spans = dir.join(format!("byc-cli-spans-{}.json", std::process::id()));
        let run = || {
            run_command(Command::Run {
                replay: ReplayArgs {
                    trace: "edr".into(),
                    granularity: "table".into(),
                    scale: 0.001,
                    seed: 9,
                    servers: 1,
                    multipliers: None,
                    topology: None,
                    fault_link: None,
                    metrics: None,
                    metrics_format: MetricsFormat::Prometheus,
                    faults: None,
                    retry: 1,
                    fault_seed: None,
                    degrade: "stale".into(),
                    trace_spans: Some(spans.clone()),
                    metrics_every: Some(64),
                    flight_recorder: None,
                },
                policy: "gds".into(),
                cache_fraction: 0.3,
                trace_events: None,
                shards: None,
            })
            .unwrap()
        };
        let out = run();
        assert!(out.contains("wrote span trace to"), "{out}");
        assert!(out.contains("replay phase spans"), "{out}");
        assert!(out.contains("parse trace"), "{out}");
        assert!(out.contains("replay GDS"), "{out}");
        assert!(
            out.contains("windowed telemetry (every 64 queries"),
            "{out}"
        );
        assert!(out.contains("0..64"), "{out}");
        assert!(out.contains("total"), "{out}");

        // The exported file is valid Chrome trace-event JSON with the
        // span schema stamped into otherData.
        let text = std::fs::read_to_string(&spans).unwrap();
        let value = byc_types::json::Value::parse(&text).unwrap();
        assert!(!value["traceEvents"].as_array().unwrap().is_empty());
        assert_eq!(
            value["otherData"]["schema"].as_str(),
            Some("byc.telemetry.spans")
        );

        // Deterministic: an identical run rewrites identical bytes.
        let out2 = run();
        assert_eq!(out, out2);
        assert_eq!(text, std::fs::read_to_string(&spans).unwrap());
        std::fs::remove_file(&spans).ok();
    }

    #[test]
    fn run_flight_recorder_dumps_postmortems() {
        let out = run_command(Command::Run {
            replay: ReplayArgs {
                trace: "edr".into(),
                granularity: "table".into(),
                scale: 0.001,
                seed: 5,
                servers: 1,
                multipliers: None,
                topology: None,
                fault_link: None,
                metrics: None,
                metrics_format: MetricsFormat::Prometheus,
                faults: Some("outage:0@0..50".into()),
                retry: 1,
                fault_seed: None,
                degrade: "fail".into(),
                trace_spans: None,
                metrics_every: None,
                flight_recorder: Some(4),
            },
            policy: "nocache".into(),
            cache_fraction: 0.3,
            trace_events: None,
            shards: None,
        })
        .unwrap();
        assert!(out.contains("postmortem: query"), "{out}");
        // The context line names the configured fault process.
        assert!(out.contains("outage: server 0 down [0, 50)"), "{out}");
        assert!(out.contains("on exhaustion fail"), "{out}");
        assert!(out.contains("FAILED"), "{out}");
    }

    #[test]
    fn sweep_with_observability_flags_writes_one_lane_per_job() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("byc-cli-obs-sweep-{}.jsonl", std::process::id()));
        let spans = dir.join(format!("byc-cli-obs-sweep-{}.json", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: trace.clone(),
            seed: 5,
            scale: 0.001,
            queries: 120,
        })
        .unwrap();
        let out = run_command(Command::Sweep(ReplayArgs {
            trace: trace.to_string_lossy().into_owned(),
            granularity: "table".into(),
            scale: 0.001,
            seed: 5,
            servers: 1,
            multipliers: None,
            topology: None,
            fault_link: None,
            metrics: None,
            metrics_format: MetricsFormat::Prometheus,
            faults: None,
            retry: 1,
            fault_seed: None,
            degrade: "stale".into(),
            trace_spans: Some(spans.clone()),
            metrics_every: Some(50),
            flight_recorder: None,
        }))
        .unwrap();
        assert!(out.contains("wrote span trace"), "{out}");
        assert!(out.contains("sweep jobs"), "{out}");

        // Every (policy, fraction) job exported its own thread lane.
        let text = std::fs::read_to_string(&spans).unwrap();
        let value = byc_types::json::Value::parse(&text).unwrap();
        let mut lanes = std::collections::BTreeSet::new();
        for event in value["traceEvents"].as_array().unwrap() {
            // Only complete spans; metadata events name the process on
            // tid 0, which is reserved for `run`'s pipeline lane.
            if event["ph"].as_str() == Some("X") {
                lanes.insert(event["tid"].as_u64().unwrap());
            }
        }
        let jobs = byc_federation::policy_roster().len() * 7;
        assert_eq!(lanes.len(), jobs, "{lanes:?}");
        assert!(text.contains("replay GDS@0.10"), "{text}");

        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&spans).ok();
    }

    #[test]
    fn sweep_metrics_label_carries_fault_name() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("byc-cli-fault-sweep-{}.jsonl", std::process::id()));
        let metrics = dir.join(format!("byc-cli-fault-sweep-{}.prom", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: trace.clone(),
            seed: 5,
            scale: 0.001,
            queries: 200,
        })
        .unwrap();
        let out = run_command(Command::Sweep(ReplayArgs {
            trace: trace.to_string_lossy().into_owned(),
            granularity: "table".into(),
            scale: 0.001,
            seed: 5,
            servers: 1,
            multipliers: None,
            topology: None,
            fault_link: None,
            metrics: Some(metrics.clone()),
            metrics_format: MetricsFormat::Prometheus,
            faults: Some("flaky:p=0.05".into()),
            retry: 2,
            fault_seed: Some(11),
            degrade: "stale".into(),
            trace_spans: None,
            metrics_every: None,
            flight_recorder: None,
        }))
        .unwrap();
        assert!(out.contains("wrote metrics"), "{out}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            text.contains("@flaky"),
            "labels should carry the fault name"
        );
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
    }

    /// A minimal flat `run` invocation over `trace` with every optional
    /// knob off; tests mutate the fields they exercise.
    fn base_run(trace: &str) -> Command {
        Command::Run {
            replay: ReplayArgs {
                trace: trace.into(),
                granularity: "column".into(),
                scale: 0.001,
                seed: 11,
                servers: 1,
                multipliers: None,
                topology: None,
                fault_link: None,
                metrics: None,
                metrics_format: MetricsFormat::Prometheus,
                faults: None,
                retry: 1,
                fault_seed: None,
                degrade: "stale".into(),
                trace_spans: None,
                metrics_every: None,
                flight_recorder: None,
            },
            policy: "gds".into(),
            cache_fraction: 0.25,
            trace_events: None,
            shards: None,
        }
    }

    #[test]
    fn streaming_flags_parse() {
        // Streaming is how a file replays, not a flag; sharding is the
        // one replay-shape flag left.
        let cmd = parse_args(&args(&[
            "run",
            "trace.jsonl",
            "--policy",
            "gds",
            "--shards",
            "4",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                replay: ReplayArgs { trace, .. },
                shards,
                ..
            } => {
                assert_eq!(trace, "trace.jsonl");
                assert_eq!(shards, Some(4));
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse_args(&args(&["run", "edr", "--policy", "gds", "--streaming"])).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
        // sweep has no sharded mode.
        let err = parse_args(&args(&["sweep", "edr", "--shards", "2"])).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
    }

    #[test]
    fn streamed_and_sharded_replays_match_the_resident_run() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("byc-cli-stream-{}.jsonl", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: path.clone(),
            seed: 11,
            scale: 0.001,
            queries: 400,
        })
        .unwrap();
        let trace = path.to_string_lossy().into_owned();
        // The streamed/sharded note lines are the only expected delta.
        let strip = |out: String| -> Vec<String> {
            out.lines()
                .filter(|l| !l.starts_with("sharded replay:") && !l.starts_with("streamed replay:"))
                .map(String::from)
                .collect()
        };
        let streamed_out = run_command(base_run(&trace)).unwrap();
        assert!(streamed_out.contains("streamed replay:"), "{streamed_out}");

        // The resident reference: the uncompiled engine over the whole
        // trace read into memory renders the same report table.
        let resident = trace_io::read_trace(&path).unwrap();
        let catalog = sdss::build(SdssRelease::Edr, 0.001, 1);
        let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
        let capacity = objects.total_size().scale(0.25);
        let mut policy = build_policy(PolicyKind::Gds, capacity, &[], 11);
        let mut cost = byc_federation::CostObserver::new(policy.name(), &resident.name, "column");
        byc_federation::ReplayEngine::new(&objects).replay(
            &resident,
            policy.as_mut(),
            &mut [&mut cost],
        );
        let report = cost.into_report();
        let table = render_cost_table(
            &format!(
                "{} on {} ({} caching, cache {:.0}% = {})",
                report.policy, report.trace, report.granularity, 25.0, capacity
            ),
            std::slice::from_ref(&report),
        );
        assert!(streamed_out.starts_with(&table), "streamed != resident");
        let plain = strip(streamed_out);

        // One shard = the whole object space: same capacity, same seed,
        // same policy instance — the report must not move.
        let mut sharded_cmd = base_run(&trace);
        if let Command::Run { ref mut shards, .. } = sharded_cmd {
            *shards = Some(1);
        }
        let sharded_out = run_command(sharded_cmd).unwrap();
        assert!(sharded_out.contains("sharded replay:"), "{sharded_out}");
        assert_eq!(plain, strip(sharded_out), "1-sharded != resident");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_files_are_priced_by_the_release_their_header_names() {
        // A gen-trace file replays exactly like the release synthesized in
        // memory, for both releases: streamed (GDS) and loaded whole
        // (Static). A DR1 file priced by the EDR catalog would bill every
        // access at EDR sizes.
        let dir = std::env::temp_dir();
        for release in ["edr", "dr1"] {
            let path = dir.join(format!(
                "byc-cli-release-{release}-{}.jsonl",
                std::process::id()
            ));
            run_command(Command::GenTrace {
                release: release.into(),
                out: path.clone(),
                seed: 11,
                scale: 0.001,
                queries: 0,
            })
            .unwrap();
            let file = path.to_string_lossy().into_owned();
            for policy in ["gds", "static"] {
                let run = |trace: &str| {
                    let argv = [
                        "run", trace, "--policy", policy, "--scale", "0.001", "--seed", "11",
                    ];
                    let out = run_command(parse_args(&args(&argv)).unwrap()).unwrap();
                    out.lines()
                        .filter(|l| !l.starts_with("streamed replay:"))
                        .map(String::from)
                        .collect::<Vec<_>>()
                };
                assert_eq!(run(release), run(&file), "{release} {policy}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn header_release_accepts_only_gen_trace_names() {
        assert_eq!(header_release("t", "EDR").unwrap(), SdssRelease::Edr);
        assert_eq!(header_release("t", "DR1").unwrap(), SdssRelease::Dr1);
        for name in ["edr", "dr1", "DR2", ""] {
            let err = header_release("t.jsonl", name).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig(_)), "{name}: {err}");
            assert!(
                err.to_string().contains(&format!("{name:?}")),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn unknown_header_release_is_rejected() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "byc-cli-release-smoke-{}.jsonl",
            std::process::id()
        ));
        let catalog = sdss::build(SdssRelease::Edr, 0.001, 1);
        let trace = generate(&catalog, &WorkloadConfig::smoke(3, 20)).unwrap();
        trace_io::write_trace(&trace, &path).unwrap();
        let file = path.to_string_lossy().into_owned();
        for policy in ["gds", "static"] {
            let argv = ["run", file.as_str(), "--policy", policy, "--scale", "0.001"];
            let err = run_command(parse_args(&args(&argv)).unwrap()).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig(_)), "{policy}: {err}");
            assert!(err.to_string().contains("\"smoke-20\""), "{policy}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_file_span_trace_counts_header_queries() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("byc-cli-span-file-{}.jsonl", std::process::id()));
        let spans = dir.join(format!("byc-cli-span-file-{}.json", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: path.clone(),
            seed: 13,
            scale: 0.001,
            queries: 90,
        })
        .unwrap();
        let mut cmd = base_run(&path.to_string_lossy());
        if let Command::Run {
            replay:
                ReplayArgs {
                    ref mut trace_spans,
                    ..
                },
            ..
        } = cmd
        {
            *trace_spans = Some(spans.clone());
        }
        let out = run_command(cmd).unwrap();
        assert!(out.contains("streamed replay:"), "{out}");
        // The trace never materialized, so the count comes from the
        // file's header.
        let text = std::fs::read_to_string(&spans).unwrap();
        let value = byc_types::json::Value::parse(&text).unwrap();
        let parse = value["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["name"].as_str() == Some("parse trace"))
            .expect("a parse trace span");
        assert_eq!(parse["args"]["queries"].as_u64(), Some(90), "{text}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&spans).ok();
    }

    #[test]
    fn sharded_tiered_run_smoke() {
        let mut cmd = base_run("edr");
        if let Command::Run {
            replay: ReplayArgs {
                ref mut topology, ..
            },
            ref mut shards,
            ..
        } = cmd
        {
            *topology = Some("two-tier".into());
            *shards = Some(2);
        }
        let out = run_command(cmd).unwrap();
        assert!(out.contains("sharded replay: 2"), "{out}");
        // The per-tier observer rides sharded runs too, and its rows sum
        // to the report like an unsharded run's.
        assert!(out.contains("per-tier breakdown"), "{out}");
    }

    #[test]
    fn streaming_flag_conflicts() {
        // --shards composes with every telemetry and observability flag:
        // the sharded policy rides the one replay lane, and the flags
        // leave its report untouched.
        let dir = std::env::temp_dir();
        let id = std::process::id();
        let metrics_path = dir.join(format!("byc-cli-sharded-metrics-{id}.json"));
        let events_path = dir.join(format!("byc-cli-sharded-events-{id}.ndjson"));
        let spans_path = dir.join(format!("byc-cli-sharded-spans-{id}.json"));
        let sharded = || {
            let mut cmd = base_run("edr");
            if let Command::Run { ref mut shards, .. } = cmd {
                *shards = Some(2);
            }
            cmd
        };
        let plain = run_command(sharded()).unwrap();
        let mut cmd = sharded();
        if let Command::Run {
            replay:
                ReplayArgs {
                    ref mut metrics,
                    ref mut trace_spans,
                    ref mut metrics_every,
                    ref mut flight_recorder,
                    ..
                },
            ref mut trace_events,
            ..
        } = cmd
        {
            *metrics = Some(metrics_path.clone());
            *trace_spans = Some(spans_path.clone());
            *metrics_every = Some(4096);
            *flight_recorder = Some(4);
            *trace_events = Some(events_path.clone());
        }
        let observed = run_command(cmd).unwrap();
        let report = |out: &str| -> Vec<String> {
            out.lines()
                .take_while(|l| !l.starts_with("sharded replay:"))
                .map(str::to_string)
                .collect()
        };
        assert!(observed.contains("sharded replay: 2"), "{observed}");
        assert_eq!(report(&plain), report(&observed));
        for path in [&metrics_path, &events_path, &spans_path] {
            let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            assert!(len > 0, "{} was not written", path.display());
            std::fs::remove_file(path).ok();
        }

        // A file streams, except under Static: its offline plan needs the
        // whole trace's demand profile, so the file loads into memory.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("byc-cli-static-{}.jsonl", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: path.clone(),
            seed: 3,
            scale: 0.001,
            queries: 50,
        })
        .unwrap();
        let mut cmd = base_run(&path.to_string_lossy());
        if let Command::Run { ref mut policy, .. } = cmd {
            *policy = "static".into();
        }
        let out = run_command(cmd).unwrap();
        assert!(out.contains("Static"), "{out}");
        assert!(!out.contains("streamed replay:"), "{out}");
        let out = run_command(base_run(&path.to_string_lossy())).unwrap();
        assert!(out.contains("streamed replay: chunked"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    /// `argv` with `flag` set to `value` (appended; the last occurrence
    /// of a flag wins).
    fn with_flag(argv: &[&str], flag: &str, value: &str) -> Vec<String> {
        let mut out = args(argv);
        out.push(flag.into());
        out.push(value.into());
        out
    }

    #[test]
    fn numeric_flags_are_typed_and_range_checked() {
        let run = ["run", "edr", "--policy", "gds"];
        let subcommands: [&[&str]; 4] = [
            &run,
            &["sweep", "edr"],
            &["analyze", "edr"],
            &["gen-trace", "edr", "--out", "t.jsonl"],
        ];
        // --scale is finite and positive, for every subcommand that
        // builds a catalog.
        for argv in subcommands {
            for scale in ["0", "-0", "-1", "nan", "NaN", "inf", "-inf", "1e999"] {
                let err = parse_args(&with_flag(argv, "--scale", scale)).unwrap_err();
                assert!(matches!(err, Error::InvalidConfig(_)), "{argv:?} {scale}");
                assert!(
                    err.to_string().contains("--scale"),
                    "{argv:?} {scale}: {err}"
                );
            }
            assert!(parse_args(&with_flag(argv, "--scale", "1e-3")).is_ok());
        }
        // Integers convert with try_from: a value that does not fit its
        // field is an error, never a truncation.
        for (flag, too_big) in [
            ("--servers", "5000000000"),
            ("--fault-link", "4294967296"),
            ("--retry", "4294967296"),
        ] {
            let err = parse_args(&with_flag(&run, flag, too_big)).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{flag}: {err}");
            let err = parse_args(&with_flag(&["sweep", "edr"], flag, too_big)).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{flag}: {err}");
        }
        for flag in ["--metrics-every", "--flight-recorder", "--shards", "--seed"] {
            for bad in ["18446744073709551616", "-1", "1.5", "x"] {
                let err = parse_args(&with_flag(&run, flag, bad)).unwrap_err();
                assert!(
                    err.to_string().contains("expects an integer"),
                    "{flag}: {err}"
                );
            }
        }
        let err = parse_args(&with_flag(
            &["gen-trace", "edr", "--out", "t.jsonl"],
            "--queries",
            "-5",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("expects an integer"), "{err}");
        // The largest values that fit are kept exactly.
        match parse_args(&with_flag(&run, "--servers", "4294967295")).unwrap() {
            Command::Run { replay, .. } => assert_eq!(replay.servers, u32::MAX),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&with_flag(&["sweep", "edr"], "--fault-link", "4294967295")).unwrap() {
            Command::Sweep(replay) => assert_eq!(replay.fault_link, Some(u32::MAX)),
            other => panic!("unexpected {other:?}"),
        }
        // --retry 0 parses but is rejected before any replay, as
        // --metrics-every 0 is.
        for argv in [&run[..], &["sweep", "edr"]] {
            let cmd = parse_args(&with_flag(argv, "--retry", "0")).unwrap();
            let err = run_command(cmd).unwrap_err();
            assert!(
                err.to_string().contains("--retry must be positive"),
                "{err}"
            );
        }
        // analyze has no granularity to choose: it reports both.
        let err = parse_args(&args(&["analyze", "edr", "--granularity", "table"])).unwrap_err();
        assert!(
            err.to_string().contains("unknown flag --granularity"),
            "{err}"
        );
    }

    #[test]
    fn shards_beyond_the_object_count_are_rejected() {
        let objects =
            ObjectCatalog::uniform(&sdss::build(SdssRelease::Edr, 0.001, 1), Granularity::Table)
                .len();
        let run = |shards: usize| {
            let argv = [
                "run",
                "edr",
                "--policy",
                "nocache",
                "--scale",
                "0.001",
                "--granularity",
                "table",
            ];
            run_command(parse_args(&with_flag(&argv, "--shards", &shards.to_string())).unwrap())
        };
        for shards in [objects + 1, 100_000] {
            let err = run(shards).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
            assert!(
                err.to_string()
                    .contains(&format!("exceeds the {objects} cache objects")),
                "{err}"
            );
        }
        // One shard per object is the most that still gives every shard
        // an object.
        let out = run(objects).unwrap();
        assert!(
            out.contains(&format!("sharded replay: {objects} object-range")),
            "{out}"
        );
    }

    #[test]
    fn sweep_flight_recorder_dumps_postmortems() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("byc-cli-sweep-pm-{}.jsonl", std::process::id()));
        run_command(Command::GenTrace {
            release: "edr".into(),
            out: trace.clone(),
            seed: 5,
            scale: 0.001,
            queries: 120,
        })
        .unwrap();
        let argv = [
            "sweep",
            trace.to_str().unwrap(),
            "--scale",
            "0.001",
            "--faults",
            "outage:0@10..20",
            "--degrade",
            "fail",
            "--retry",
            "2",
        ];
        let out =
            run_command(parse_args(&with_flag(&argv, "--flight-recorder", "2")).unwrap()).unwrap();
        // The recorder comes from the session, so a sweep with no other
        // stream still dumps the failing points' postmortems, stamped
        // with the session's fault context. NoCache bypasses every
        // slice, so each of its points crosses the outage.
        for fraction in ["0.10", "0.50", "1.00"] {
            assert!(
                out.contains(&format!("postmortems for NoCache@{fraction}:")),
                "{out}"
            );
        }
        assert!(out.contains("retry up to 2; on exhaustion fail"), "{out}");
        let plain = run_command(parse_args(&args(&argv)).unwrap()).unwrap();
        assert!(!plain.contains("postmortem"), "{plain}");
        assert!(out.starts_with(&plain), "the cost table must not move");
        std::fs::remove_file(&trace).ok();
    }

    /// Byte-level mutants of `seed`: every truncation, then random bit
    /// flips, grammar-byte substitutions, insertions and deletions.
    /// Invalid UTF-8 is replaced lossily, as arguments arrive as
    /// `String`s.
    fn mutants(seed: &str, rng: &mut SplitMix64, count: usize) -> Vec<String> {
        let bytes = seed.as_bytes();
        let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        let grammar = b"-+.,:@=x0123456789eEnaif \x00\xff";
        let below = |rng: &mut SplitMix64, n: usize| {
            usize::try_from(rng.next_bounded(n.max(1) as u64)).unwrap()
        };
        for _ in 0..count {
            let mut m = bytes.to_vec();
            let at = below(rng, m.len());
            match rng.next_bounded(4) {
                0 if !m.is_empty() => m[at] ^= 1 << rng.next_bounded(8),
                1 if !m.is_empty() => m[at] = *rng.pick(grammar),
                2 => m.insert(at.min(m.len()), *rng.pick(grammar)),
                _ if !m.is_empty() => {
                    m.remove(at);
                }
                _ => {}
            }
            out.push(m);
        }
        out.into_iter()
            .map(|m| String::from_utf8_lossy(&m).into_owned())
            .collect()
    }

    /// Parse `argv` and build every spec it names, the way a replay's
    /// setup would; panics propagate to the caller's `catch_unwind`.
    fn parse_and_build(argv: &[String]) {
        let replay = match parse_args(argv) {
            Ok(Command::Run { replay, policy, .. }) => {
                let _ = parse_policy(&policy);
                replay
            }
            Ok(Command::Sweep(replay)) => replay,
            _ => return,
        };
        let _ = parse_granularity(&replay.granularity);
        let _ = parse_degradation(&replay.degrade);
        let _ = build_network(&replay.multipliers);
        if let Some(spec) = &replay.topology {
            let _ = parse_topology(spec, &replay.multipliers);
        }
        if let Some(spec) = &replay.faults {
            if let Ok(model) = parse_faults(spec, replay.seed) {
                let _ = scope_faults(model, replay.fault_link);
            }
        }
    }

    #[test]
    fn mutated_arguments_and_specs_never_panic() {
        let mut rng = SplitMix64::new(0x5eed);
        let check = |argv: Vec<String>| {
            let outcome = std::panic::catch_unwind(|| parse_and_build(&argv));
            assert!(outcome.is_ok(), "panicked on {argv:?}");
        };
        let valid: [&[&str]; 2] = [
            &[
                "run",
                "edr",
                "--policy",
                "gds",
                "--scale",
                "0.001",
                "--cache-fraction",
                "0.2",
                "--servers",
                "3",
                "--cost-multipliers",
                "1,2.5,4e0",
                "--topology",
                "three-tier:0.1,0.25",
                "--faults",
                "flaky:p=0.02,spike=0.05x4",
                "--fault-link",
                "1",
                "--retry",
                "3",
                "--fault-seed",
                "9",
                "--degrade",
                "fail",
                "--metrics-every",
                "5000",
                "--flight-recorder",
                "8",
                "--shards",
                "2",
            ],
            &[
                "sweep",
                "t.jsonl",
                "--granularity",
                "table",
                "--topology",
                "two-tier:0.5",
                "--faults",
                "outage:0@100..200,1@5..8",
                "--metrics",
                "m.json",
                "--metrics-format",
                "json",
                "--seed",
                "7",
            ],
        ];
        for argv in valid {
            let base = args(argv);
            check(base.clone());
            for i in 0..base.len() {
                // One argument mutated byte by byte...
                for m in mutants(&base[i], &mut rng, 40) {
                    let mut mutated = base.clone();
                    mutated[i] = m;
                    check(mutated);
                }
                // ...or dropped, duplicated, or swapped with its neighbour.
                let mut dropped = base.clone();
                dropped.remove(i);
                check(dropped);
                let mut doubled = base.clone();
                doubled.insert(i, base[i].clone());
                check(doubled);
                let mut swapped = base.clone();
                swapped.swap(i, (i + 1) % base.len());
                check(swapped);
            }
        }
        // The spec grammars directly, including values that parse as
        // numbers but are out of range.
        let faults = [
            "none",
            "outage:0@10..20,1@5..8",
            "flaky:p=0.01,spike=0.05x4",
        ];
        let topologies = ["flat", "two-tier:0.25", "three-tier:0.1,0.25"];
        let multipliers = ["1,2.5,4e0", "0.5"];
        let tokens = [
            "nan",
            "inf",
            "-inf",
            "-1",
            "0",
            "1e400",
            "18446744073709551616",
            "",
        ];
        for seed in faults {
            let mut cases = mutants(seed, &mut rng, 400);
            cases.extend(tokens.iter().map(|t| seed.replace("0.0", t)));
            for spec in cases {
                let outcome = std::panic::catch_unwind(|| {
                    if let Ok(model) = parse_faults(&spec, 3) {
                        let _ = scope_faults(model, Some(u32::MAX));
                    }
                });
                assert!(outcome.is_ok(), "--faults {spec:?} panicked");
            }
        }
        for seed in topologies {
            let mut cases = mutants(seed, &mut rng, 400);
            cases.extend(tokens.iter().map(|t| seed.replace("0.", t)));
            for spec in cases {
                for origin in [None, Some(vec![1.0, 2.0])] {
                    let outcome = std::panic::catch_unwind(|| parse_topology(&spec, &origin));
                    assert!(outcome.is_ok(), "--topology {spec:?} panicked");
                }
            }
        }
        for seed in multipliers {
            let mut cases = mutants(seed, &mut rng, 400);
            cases.extend(tokens.iter().map(|t| format!("1,{t}")));
            for spec in cases {
                let argv = args(&["run", "edr", "--policy", "gds", "--cost-multipliers", &spec]);
                check(argv.clone());
                let mut tiered = argv;
                tiered.extend(args(&["--topology", "two-tier"]));
                check(tiered);
            }
        }
    }
}
