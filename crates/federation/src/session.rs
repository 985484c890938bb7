//! [`ReplaySession`]: the one fluent entry point to every replay shape.
//!
//! A session configures one replay of one trace — policy, network
//! pricing or tier topology, faults, auditing, series capture, extra
//! observers — and then either [`ReplaySession::run`]s it or
//! [`ReplaySession::sweep`]s a (policy × cache-size) grid over it:
//!
//! ```text
//! ReplaySession::new(&trace, &objects)
//!     .policy(policy.as_mut())      // required for .run()
//!     .network(&net)                // default: Uniform (BYU)
//!     .faults(&model)               // default: no fault layer
//!     .retry(RetryPolicy::new(3, 8))
//!     .degrade(DegradationPolicy::Fail)
//!     .observe(&mut telemetry)      // any extra Observer, repeatable
//!     .audited()                    // default: debug builds only
//!     .series(100)                  // default: no series capture
//!     .run()?                       // -> Replay
//!
//! ReplaySession::new(&trace, &objects)
//!     .network(&net)
//!     .faults(&model)
//!     .sweep(SweepOptions::new(&policies, &fractions, &demands, seed))?
//! ```
//!
//! Every run goes through one driver over the chunked kernel in
//! [`crate::stream`]: it validates the configuration once, picks a
//! chunk source (a [`TraceReader`] via [`ReplaySession::from_reader`],
//! decoded one chunk ahead on a scoped thread; windows over a resident
//! trace; or the sweep's whole-trace arena), replays every chunk on one
//! lane, and closes out with one protocol: each tier's audit (each
//! shard's, for a [`ShardedPolicy`] bound via
//! [`ReplaySession::shards`]) against the policy it watched, every
//! other observer against the site tier's. Chunking never changes a
//! report; it only bounds memory (see DESIGN.md §17).
//!
//! Configuration errors (no policy before `run`, a policy before
//! `sweep`) surface as [`byc_types::Error::InvalidConfig`] — the crate
//! has a no-panic lint, so the builder never panics on misuse.

#[cfg(test)]
use crate::accounting::CostReport;
use crate::compiled::CompiledTrace;
use crate::engine::{CostObserver, FlightRecorder, Observer, SeriesObserver};
use crate::faults::{DegradationPolicy, FaultModel, FaultPlan, RetryPolicy, NO_RETRY};
use crate::network::{NetworkModel, Topology};
use crate::policies::{build_policy, PolicyKind};
use crate::simulator::{debug_assert_audit, Replay};
use crate::stream::{close_out, stack_audits, ChunkCompiler, Feed, Lane, DEFAULT_CHUNK};
use crate::sweep::{SweepOptions, SweepPoint};
use byc_catalog::ObjectCatalog;
use byc_core::policy::CachePolicy;
use byc_core::shard::ShardedPolicy;
use byc_core::static_opt::ObjectDemand;
use byc_types::{Error, Result};
use byc_workload::{Trace, TraceReader};

/// A configured replay over one trace and object view. See the module
/// docs for the grammar; terminals are [`ReplaySession::run`] and
/// [`ReplaySession::sweep`].
pub struct ReplaySession<'a> {
    trace: Option<&'a Trace>,
    reader: Option<&'a mut TraceReader>,
    objects: &'a ObjectCatalog,
    network: &'a dyn NetworkModel,
    faults: Option<&'a dyn FaultModel>,
    retry: RetryPolicy,
    degradation: DegradationPolicy,
    audit: Option<bool>,
    sample_every: Option<usize>,
    /// Queries per compiled chunk (`usize::MAX`: the whole trace).
    chunk_size: usize,
    /// The sweep's compile-once seam: a whole-trace arena to replay
    /// instead of compiling chunks.
    arena: Option<&'a CompiledTrace>,
    topology: Option<&'a Topology>,
    tier_policies: Vec<&'a mut (dyn CachePolicy + Send + Sync)>,
    policy: Option<&'a mut dyn CachePolicy>,
    observers: Vec<&'a mut dyn Observer>,
    flight_recorder: Option<usize>,
}

impl std::fmt::Debug for ReplaySession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplaySession")
            .field("trace", &self.trace.map(|t| t.name.as_str()))
            .field("reader", &self.reader.as_ref().map(|r| r.name()))
            .field("chunk_size", &self.chunk_size)
            .field("arena", &self.arena.map(CompiledTrace::queries))
            .field("network", &self.network.name())
            .field("faults", &self.faults.map(FaultModel::name))
            .field("retry", &self.retry)
            .field("degradation", &self.degradation)
            .field("audit", &self.audit)
            .field("sample_every", &self.sample_every)
            .field("topology", &self.topology.map(Topology::name))
            .field("tier_policies", &self.tier_policies.len())
            .field("observers", &self.observers.len())
            .field("flight_recorder", &self.flight_recorder)
            .finish_non_exhaustive()
    }
}

impl<'a> ReplaySession<'a> {
    /// A session over `trace` at the granularity of `objects`, on a
    /// uniform network, fault-free, with auditing following the build
    /// profile (on in debug, off in release) and no extra observers.
    pub fn new(trace: &'a Trace, objects: &'a ObjectCatalog) -> Self {
        Self::build(Some(trace), None, objects)
    }

    /// A session streaming queries off `reader` instead of an in-memory
    /// trace: chunks are pulled, compiled, and replayed as they arrive,
    /// so memory stays constant in the trace length. The sweep terminal
    /// (which replays the trace once per grid point) is unavailable.
    pub fn from_reader(reader: &'a mut TraceReader, objects: &'a ObjectCatalog) -> Self {
        Self::build(None, Some(reader), objects)
    }

    fn build(
        trace: Option<&'a Trace>,
        reader: Option<&'a mut TraceReader>,
        objects: &'a ObjectCatalog,
    ) -> Self {
        ReplaySession {
            trace,
            reader,
            objects,
            network: &crate::network::UNIFORM,
            faults: None,
            retry: NO_RETRY,
            degradation: DegradationPolicy::default(),
            audit: None,
            sample_every: None,
            chunk_size: DEFAULT_CHUNK,
            arena: None,
            topology: None,
            tier_policies: Vec::new(),
            policy: None,
            observers: Vec::new(),
            flight_recorder: None,
        }
    }

    /// Compile and replay in chunks of the default size (1024 queries),
    /// the default for every session.
    #[must_use]
    pub fn streaming(self) -> Self {
        self.chunk_size(DEFAULT_CHUNK)
    }

    /// Queries per compiled chunk (default 1024; clamped to at least 1).
    /// Smaller chunks tighten the memory bound, larger ones amortize
    /// per-chunk dispatch; reports are bit-identical at every size. A
    /// reader-backed session holds up to three chunks of queries in
    /// flight: one being decoded, one queued, one being replayed.
    #[must_use]
    pub fn chunk_size(mut self, queries: usize) -> Self {
        self.chunk_size = queries.max(1);
        self
    }

    /// Compile the whole trace as one chunk before replaying it, the
    /// way a sweep does. Reports are bit-identical to chunked replay.
    #[must_use]
    pub fn compiled(self) -> Self {
        self.chunk_size(usize::MAX)
    }

    /// Replay the whole-trace arena `arena` instead of compiling: the
    /// compile-once seam that lets one compilation serve many replays
    /// (every sweep job shares one). `arena` must be compiled from this
    /// session's trace and object view under its network (or topology);
    /// [`Self::run`] rejects an arena whose query or tier count does
    /// not match.
    #[must_use]
    pub fn precompiled(mut self, arena: &'a CompiledTrace) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Replay through a [`ShardedPolicy`]: one policy instance per
    /// object-id range, each caching in its own share of the capacity.
    /// It is an ordinary policy to the replay — on a flat session this
    /// binds it like [`Self::policy`], on a topology like the next
    /// [`Self::tier_policy`] (so call [`Self::topology`] first) — and
    /// every observer rides it as usual. Its report is bit-identical to
    /// the same sharded policy passed to `.policy(...)`, but not to an
    /// unsharded policy, whose capacity is not split. Either way the
    /// audit keeps one shadow model per shard, each checked against its
    /// own shard's instance.
    #[must_use]
    pub fn shards(self, sharded: &'a mut ShardedPolicy) -> Self {
        match self.topology {
            Some(_) => self.tier_policy(sharded),
            None => self.policy(sharded),
        }
    }

    /// Attach a fault flight recorder keeping the last `depth` events
    /// per tier: whenever a query fails or degrades, the recorder
    /// snapshots an annotated [`Postmortem`](crate::engine::Postmortem)
    /// into [`Replay::postmortems`] (each [`SweepPoint::postmortems`] in
    /// a sweep), stamped with the session's fault configuration.
    #[must_use]
    pub fn flight_recorder(mut self, depth: usize) -> Self {
        self.flight_recorder = Some(depth.max(1));
        self
    }

    /// The fault context stamped into postmortems: the model's
    /// description plus the retry/degradation configuration.
    fn fault_context(&self) -> String {
        match self.faults {
            Some(model) => format!(
                "{}; retry up to {}; on exhaustion {}",
                model.describe(),
                self.retry.max_attempts,
                self.degradation.label()
            ),
            None => "no fault layer".to_string(),
        }
    }

    /// The policy driving decisions. Required before [`Self::run`];
    /// rejected by the sweep terminals (they build their own policies).
    #[must_use]
    pub fn policy(mut self, policy: &'a mut dyn CachePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Price WAN traffic per home-server link (default: uniform/BYU).
    #[must_use]
    pub fn network(mut self, network: &'a dyn NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Resolve WAN transfers through a fault model (default: none — the
    /// exact fault-free path).
    #[must_use]
    pub fn faults(mut self, model: &'a dyn FaultModel) -> Self {
        self.faults = Some(model);
        self
    }

    /// Retry bounds and backoff for faulted transfers. Meaningless
    /// without [`Self::faults`].
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// What to do when a slice's retry budget is exhausted (default:
    /// serve the stale local copy).
    #[must_use]
    pub fn degrade(mut self, degradation: DegradationPolicy) -> Self {
        self.degradation = degradation;
        self
    }

    /// Ride an extra [`Observer`] on the replay (repeatable). The
    /// observer sees exactly the event stream that produces the returned
    /// [`Replay`], so its totals cannot drift from the report.
    #[must_use]
    pub fn observe(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observers.push(observer);
        self
    }

    /// Force decision-stream auditing on (even in release builds).
    /// Violations are reported in [`Replay::audit`], never panicked on.
    #[must_use]
    pub fn audited(mut self) -> Self {
        self.audit = Some(true);
        self
    }

    /// Force auditing off (even in debug builds).
    #[must_use]
    pub fn unaudited(mut self) -> Self {
        self.audit = Some(false);
        self
    }

    /// Sample the cumulative WAN cost every `every` queries (plus the
    /// final query) into [`Replay::series`].
    #[must_use]
    pub fn series(mut self, every: usize) -> Self {
        self.sample_every = Some(every.max(1));
        self
    }

    /// Replay over a tier hierarchy instead of the flat client↔server
    /// WAN: every link is priced by the topology (superseding
    /// [`Self::network`]), each caching tier runs its own policy, and a
    /// miss bypasses one hop *up* instead of straight to the origin.
    /// Requires exactly [`Topology::depth`] policies via
    /// [`Self::tier_policy`] (bottom-up) instead of [`Self::policy`].
    #[must_use]
    pub fn topology(mut self, topology: &'a Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Append the next tier's policy, bottom-up: the first call binds
    /// the site tier, the last the tier below the origin. Only
    /// meaningful with [`Self::topology`]; the policy bound carries
    /// `Send + Sync` because tier hierarchies are sweep-shareable.
    #[must_use]
    pub fn tier_policy(mut self, policy: &'a mut (dyn CachePolicy + Send + Sync)) -> Self {
        self.tier_policies.push(policy);
        self
    }

    /// Replay the trace through the configured policy (or, with
    /// [`Self::topology`], through the configured tier hierarchy).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when no policy was configured, or when
    /// the configuration is inconsistent (a flat `.policy(...)`
    /// alongside a topology, a tier-policy count that does not match
    /// the topology's depth, or an arena that does not match the
    /// trace); IO and format errors from a reader.
    pub fn run(self) -> Result<Replay> {
        let audit = self.audit.unwrap_or(cfg!(debug_assertions));
        let fault_context = self.fault_context();
        let faults = self.faults.map(|model| FaultPlan {
            model,
            retry: self.retry,
            degradation: self.degradation,
        });
        let ReplaySession {
            trace,
            reader,
            objects,
            network,
            sample_every,
            chunk_size,
            arena,
            topology,
            tier_policies,
            policy,
            mut observers,
            flight_recorder,
            ..
        } = self;
        let stack = validate(topology, policy, tier_policies)?;
        let depth = topology.map_or(1, Topology::depth);
        let feed = match (reader, trace, arena) {
            (Some(reader), None, None) => Feed::Reader {
                reader,
                chunk: chunk_size,
            },
            (None, Some(trace), None) => Feed::Memory {
                trace,
                chunk: chunk_size,
            },
            (None, Some(trace), Some(arena))
                if arena.queries() == trace.len() && arena.tiers() == depth =>
            {
                Feed::Compiled { trace, arena }
            }
            _ => {
                return Err(Error::InvalidConfig(
                    "a precompiled arena must be compiled from the session's resident trace \
                     at the session's tier depth"
                        .into(),
                ))
            }
        };
        let mut compiler = match topology {
            Some(topology) => ChunkCompiler::tiered(objects, topology),
            None => ChunkCompiler::flat(objects, network),
        };
        let label = stack.first().map(|p| p.name()).unwrap_or_default();
        let report = CostObserver::new(label, feed.name(), compiler.granularity());
        let mut series = sample_every.map(SeriesObserver::new);
        let mut audits = if audit {
            stack_audits(&stack)
        } else {
            Vec::new()
        };
        let mut recorder =
            flight_recorder.map(|k| FlightRecorder::new(k).with_context(fault_context));
        let (stack, cost) = {
            let mut all: Vec<&mut dyn Observer> =
                Vec::with_capacity(2 + audits.len() + observers.len());
            if let Some(series) = series.as_mut() {
                all.push(series);
            }
            for audit in audits.iter_mut() {
                all.push(audit);
            }
            if let Some(recorder) = recorder.as_mut() {
                all.push(recorder);
            }
            for obs in observers.iter_mut() {
                all.push(&mut **obs);
            }
            let mut lane = Lane::new(stack, report, all);
            feed.drive(&mut compiler, |chunk, queries| {
                lane.replay(chunk, queries, faults.as_ref());
            })?;
            lane.into_parts()
        };
        let mut others: Vec<&mut dyn Observer> = Vec::with_capacity(2 + observers.len());
        if let Some(series) = series.as_mut() {
            others.push(series);
        }
        if let Some(recorder) = recorder.as_mut() {
            others.push(recorder);
        }
        for obs in observers.iter_mut() {
            others.push(&mut **obs);
        }
        let (audit, warnings) = close_out(&stack, audits, &mut others);
        let report = cost.into_report();
        debug_assert!(report.conserves_delivery());
        Ok(Replay {
            report,
            series: series.map(SeriesObserver::into_series).unwrap_or_default(),
            audit,
            warnings,
            postmortems: recorder
                .map(FlightRecorder::into_postmortems)
                .unwrap_or_default(),
        })
    }

    /// Replay every (policy, cache-fraction) pair of
    /// [`SweepOptions`]' grid in parallel under this session's
    /// network/fault/audit configuration. The trace is compiled once
    /// and every job replays the shared arena. Results are ordered by
    /// policy then fraction; per-job observers configured via
    /// [`SweepOptions::observe`] land in their sink in the same order.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when a policy or extra observers were
    /// configured (sweeps build their own per job), when the session
    /// reads from a file (sweeps replay one in-memory trace), or when a
    /// fraction is not positive.
    pub fn sweep<O: Observer + Send>(
        self,
        options: SweepOptions<'_, O>,
    ) -> Result<Vec<SweepPoint>> {
        let SweepOptions {
            policies,
            fractions,
            demands,
            seed,
            observe,
        } = options;
        let (make, sink) = match observe {
            Some(crate::sweep::SweepObserve { make, sink }) => (Some(make), Some(sink)),
            None => (None, None),
        };
        let results = self.sweep_inner(policies, fractions, demands, seed, make)?;
        let mut points = Vec::with_capacity(results.len());
        let mut observers = Vec::new();
        for (point, observer) in results {
            points.push(point);
            observers.extend(observer);
        }
        if let Some(sink) = sink {
            sink.extend(observers);
        }
        Ok(points)
    }

    /// The shared sweep implementation. With `make_observer: None` the
    /// jobs carry no observer, so every replay runs the report-only
    /// sink.
    fn sweep_inner<O: Observer + Send>(
        self,
        policies: &[PolicyKind],
        fractions: &[f64],
        demands: &[ObjectDemand],
        seed: u64,
        make_observer: Option<&dyn Fn(PolicyKind, f64) -> O>,
    ) -> Result<Vec<(SweepPoint, Option<O>)>> {
        if self.policy.is_some() {
            return Err(Error::InvalidConfig(
                "sweep terminals build one policy per (kind, fraction) job; \
                 don't call .policy(...) before .sweep(...)"
                    .into(),
            ));
        }
        if !self.observers.is_empty() {
            return Err(Error::InvalidConfig(
                "sweep observers come from SweepOptions::observe; \
                 don't call .observe(...) before .sweep(...)"
                    .into(),
            ));
        }
        if !self.tier_policies.is_empty() {
            return Err(Error::InvalidConfig(
                "sweep terminals build one policy per tier per job from the \
                 topology; don't call .tier_policy(...) before .sweep(...)"
                    .into(),
            ));
        }
        if self.reader.is_some() {
            return Err(Error::InvalidConfig(
                "sweeps replay one in-memory trace across the whole grid; \
                 reader-backed sessions cannot sweep"
                    .into(),
            ));
        }
        for &f in fractions {
            if f <= 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "cache fraction must be positive, got {f}"
                )));
            }
        }
        let ReplaySession {
            trace,
            objects,
            network,
            faults,
            retry,
            degradation,
            audit,
            sample_every,
            topology,
            flight_recorder,
            ..
        } = self;
        let Some(trace) = trace else {
            // Unreachable: reader-backed sessions were rejected above.
            return Err(Error::InvalidConfig(
                "sweeps need an in-memory trace".into(),
            ));
        };
        let db = objects.total_size();
        let mut jobs: Vec<(PolicyKind, f64, Option<O>)> = Vec::new();
        for &kind in policies {
            for &f in fractions {
                let observer = make_observer.map(|make| make(kind, f));
                jobs.push((kind, f, observer));
            }
        }

        // Compile once, replay many: every (policy, fraction) job shares
        // one immutable arena instead of re-resolving and re-pricing the
        // trace per replay.
        let arena = match topology {
            Some(topo) => ChunkCompiler::tiered(objects, topo).compile(&trace.queries),
            None => ChunkCompiler::flat(objects, network).compile(&trace.queries),
        };
        let arena = &arena;

        let results: Result<Vec<(SweepPoint, Option<O>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|(kind, fraction, mut observer)| {
                    scope.spawn(move || -> Result<(SweepPoint, Option<O>)> {
                        // Site-tier capacity; on a topology, inner tiers
                        // scale it by their spec's `capacity_scale`.
                        let capacity = db.scale(fraction);
                        let mut flat_policy: Option<Box<dyn CachePolicy + Send + Sync>> = None;
                        let mut tier_boxes: Vec<Box<dyn CachePolicy + Send + Sync>>;
                        let mut session = ReplaySession::new(trace, objects)
                            .precompiled(arena)
                            .retry(retry)
                            .degrade(degradation);
                        match topology {
                            Some(topo) => {
                                tier_boxes = topo
                                    .tiers()
                                    .iter()
                                    .map(|spec| {
                                        build_policy(
                                            kind,
                                            db.scale(fraction * spec.capacity_scale),
                                            demands,
                                            seed,
                                        )
                                    })
                                    .collect();
                                session = session.topology(topo);
                                for p in tier_boxes.iter_mut() {
                                    session = session.tier_policy(p.as_mut());
                                }
                            }
                            None => {
                                let policy =
                                    flat_policy.insert(build_policy(kind, capacity, demands, seed));
                                session = session.network(network).policy(policy.as_mut());
                            }
                        }
                        if let Some(obs) = observer.as_mut() {
                            session = session.observe(obs);
                        }
                        if let Some(model) = faults {
                            session = session.faults(model);
                        }
                        if let Some(every) = sample_every {
                            session = session.series(every);
                        }
                        if let Some(depth) = flight_recorder {
                            session = session.flight_recorder(depth);
                        }
                        session = match audit {
                            Some(true) => session.audited(),
                            Some(false) => session.unaudited(),
                            None => session,
                        };
                        let replay = session.run()?;
                        debug_assert_audit(&replay);
                        Ok((
                            SweepPoint {
                                policy: kind.label().to_string(),
                                cache_fraction: fraction,
                                capacity,
                                report: replay.report,
                                warnings: replay.warnings,
                                postmortems: replay.postmortems,
                            },
                            observer,
                        ))
                    })
                })
                .collect();
            handles
                .into_iter()
                // Re-raise a worker's panic with its original payload
                // intact instead of masking it behind a generic message.
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        results
    }
}

/// Check the policy configuration once and settle the stack the run
/// drives: one policy per tier, bottom-up (the flat network is the
/// one-tier case).
fn validate<'a>(
    topology: Option<&Topology>,
    policy: Option<&'a mut dyn CachePolicy>,
    tier_policies: Vec<&'a mut (dyn CachePolicy + Send + Sync)>,
) -> Result<Vec<&'a mut dyn CachePolicy>> {
    match topology {
        None => {
            if !tier_policies.is_empty() {
                return Err(Error::InvalidConfig(
                    "tier policies need a topology; call .topology(...) before .tier_policy(...)"
                        .into(),
                ));
            }
            match policy {
                Some(policy) => Ok(vec![policy]),
                None => Err(Error::InvalidConfig(
                    "ReplaySession::run needs a policy; call .policy(...) or .shards(...) \
                     first (or a sweep terminal, which builds its own)"
                        .into(),
                )),
            }
        }
        Some(topo) => {
            if policy.is_some() {
                return Err(Error::InvalidConfig(
                    "tiered sessions take one policy per tier via .tier_policy(...) or \
                     .shards(...) after .topology(...); don't call .policy(...) alongside \
                     .topology(...)"
                        .into(),
                ));
            }
            let depth = topo.depth();
            if tier_policies.len() != depth {
                return Err(Error::InvalidConfig(format!(
                    "topology {} has {} tiers but {} tier policies were configured",
                    topo.name(),
                    depth,
                    tier_policies.len()
                )));
            }
            Ok(tier_policies
                .into_iter()
                .map(|p| p as &mut dyn CachePolicy)
                .collect())
        }
    }
}

/// One-shot replay returning just the report (test helper).
#[cfg(test)]
pub(crate) fn run_report(
    trace: &Trace,
    objects: &ObjectCatalog,
    policy: &mut dyn CachePolicy,
) -> CostReport {
    match ReplaySession::new(trace, objects).policy(policy).run() {
        Ok(replay) => {
            debug_assert_audit(&replay);
            replay.report
        }
        // Unreachable: the policy is always set above.
        Err(_) => CostReport::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{replay_tiered, AuditObserver, PerTierObserver, QueryWindow, ReplayEngine};
    use crate::faults::{FlakyLinks, LinkScoped, NoFaults, Outage, OutageWindows};
    use crate::network::{PerServerMultipliers, Uniform};
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::Granularity;
    use byc_core::rate_profile::{RateProfile, RateProfileConfig};
    use byc_core::static_opt::NoCache;
    use byc_types::{Bytes, ServerId, Tick};
    use byc_workload::{generate, WorkloadConfig, WorkloadStats};

    fn setup(servers: u32, queries: usize) -> (Trace, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, servers);
        let trace = generate(&cat, &WorkloadConfig::smoke(43, queries)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        (trace, objects)
    }

    /// The flat uncompiled oracle: [`ReplayEngine::replay`] into a bare
    /// [`CostObserver`].
    fn oracle(
        trace: &Trace,
        objects: &ObjectCatalog,
        network: &dyn NetworkModel,
        faults: Option<FaultPlan<'_>>,
        policy: &mut dyn CachePolicy,
    ) -> CostReport {
        let mut engine = ReplayEngine::with_network(objects, network);
        if let Some(plan) = faults {
            engine = engine.with_faults(plan);
        }
        let mut cost = CostObserver::new(policy.name(), &trace.name, objects.granularity().label());
        engine.replay(trace, policy, &mut [&mut cost]);
        cost.into_report()
    }

    #[test]
    fn run_without_policy_is_a_config_error() {
        let (trace, objects) = setup(1, 100);
        let err = ReplaySession::new(&trace, &objects).run().unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn sweep_with_policy_is_a_config_error() {
        let (trace, objects) = setup(1, 100);
        let stats = WorkloadStats::compute(&trace, &objects);
        let mut p = NoCache;
        let err = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .sweep(SweepOptions::new(
                &[PolicyKind::NoCache],
                &[0.5],
                &stats.demands,
                1,
            ))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn sweep_rejects_non_positive_fractions() {
        let (trace, objects) = setup(1, 100);
        let stats = WorkloadStats::compute(&trace, &objects);
        let err = ReplaySession::new(&trace, &objects)
            .sweep(SweepOptions::new(
                &[PolicyKind::NoCache],
                &[0.0],
                &stats.demands,
                1,
            ))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn no_faults_model_is_bit_identical_to_no_fault_layer() {
        let (trace, objects) = setup(2, 800);
        let cap = objects.total_size().scale(0.3);
        let plain = {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            ReplaySession::new(&trace, &objects)
                .policy(&mut p)
                .run()
                .unwrap()
                .report
        };
        let faulted = {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            ReplaySession::new(&trace, &objects)
                .policy(&mut p)
                .faults(&NoFaults)
                .retry(RetryPolicy::new(3, 10))
                .run()
                .unwrap()
                .report
        };
        assert_eq!(plain, faulted);
        assert_eq!(faulted.retried_bytes, Bytes::ZERO);
        assert_eq!(faulted.failed_queries, 0);
        assert_eq!(faulted.degraded_queries, 0);
    }

    #[test]
    fn outage_with_stale_degradation_degrades_queries() {
        let (trace, objects) = setup(1, 600);
        let model = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(200),
        }]);
        let mut p = NoCache;
        let replay = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&model)
            .run()
            .unwrap();
        let report = replay.report;
        assert!(report.degraded_queries > 0);
        assert_eq!(report.failed_queries, 0);
        assert_eq!(report.failed_bytes, Bytes::ZERO);
        // Stale-served slices moved delivery from bypass to cache tier.
        assert!(report.cache_served > Bytes::ZERO);
        assert!(report.conserves_delivery());
        // Single attempts against a downed server waste one transfer each.
        assert!(report.retried_bytes > Bytes::ZERO);
        assert!((report.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outage_with_fail_degradation_fails_queries_and_reconciles() {
        let (trace, objects) = setup(1, 600);
        let model = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(200),
        }]);
        let run_free = || {
            let mut p = NoCache;
            run_report(&trace, &objects, &mut p)
        };
        let mut p = NoCache;
        let faulted = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&model)
            .degrade(DegradationPolicy::Fail)
            .run()
            .unwrap()
            .report;
        let free = run_free();
        assert!(faulted.failed_queries > 0);
        assert!(faulted.failed_bytes > Bytes::ZERO);
        assert!(faulted.availability() < 1.0);
        // Reconciliation: delivery lost to failures accounts exactly for
        // the gap to the fault-free replay.
        assert_eq!(
            faulted.sequence_cost + faulted.failed_bytes,
            free.sequence_cost
        );
        // Decision streams are fault-independent.
        assert_eq!(faulted.bypasses, free.bypasses);
        assert_eq!(faulted.hits, free.hits);
        assert_eq!(faulted.loads, free.loads);
        assert!(faulted.conserves_delivery());
    }

    #[test]
    fn retries_ride_out_outages_and_charge_wasted_traffic() {
        let (trace, objects) = setup(1, 600);
        let model = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(110),
        }]);
        let mut p = NoCache;
        let replay = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&model)
            .retry(RetryPolicy::new(4, 16))
            .degrade(DegradationPolicy::Fail)
            .run()
            .unwrap();
        let report = replay.report;
        // Attempt 3 runs at t+48, past the 10-tick window: nothing fails.
        assert_eq!(report.failed_queries, 0);
        assert!(report.retries > 0);
        assert!(report.retried_bytes > Bytes::ZERO);
        assert!(report.total_cost() > report.bypass_cost + report.fetch_cost);
    }

    #[test]
    fn same_seed_flaky_replays_are_bit_identical() {
        let (trace, objects) = setup(2, 500);
        let cap = objects.total_size().scale(0.3);
        let run = |seed: u64| {
            let model = FlakyLinks::new(seed, 0.05, 0.1, 4.0);
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            ReplaySession::new(&trace, &objects)
                .policy(&mut p)
                .faults(&model)
                .retry(RetryPolicy::new(2, 4))
                .run()
                .unwrap()
                .report
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn flaky_spikes_inflate_wan_cost() {
        let (trace, objects) = setup(1, 500);
        let mut p = NoCache;
        let spiked = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&FlakyLinks::new(3, 0.0, 0.5, 8.0))
            .run()
            .unwrap()
            .report;
        let mut p = NoCache;
        let free = run_report(&trace, &objects, &mut p);
        assert!(spiked.bypass_cost > free.bypass_cost);
        // Spikes are WAN-priced, not delivered bytes: delivery identical.
        assert_eq!(spiked.sequence_cost, free.sequence_cost);
        assert_eq!(spiked.bypass_served, free.bypass_served);
    }

    #[test]
    fn faulted_series_ends_at_total_cost() {
        let (trace, objects) = setup(1, 500);
        let mut p = NoCache;
        let replay = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&FlakyLinks::new(5, 0.1, 0.0, 1.0))
            .retry(RetryPolicy::new(2, 1))
            .series(100)
            .run()
            .unwrap();
        let last = replay.series.last().unwrap();
        assert_eq!(last.cumulative_cost, replay.report.total_cost());
        for w in replay.series.windows(2) {
            assert!(w[1].cumulative_cost >= w[0].cumulative_cost);
        }
    }

    #[test]
    fn sweep_under_faults_covers_grid_and_reconciles() {
        let (trace, objects) = setup(2, 500);
        let stats = WorkloadStats::compute(&trace, &objects);
        let model = FlakyLinks::new(9, 0.02, 0.05, 2.0);
        let points = ReplaySession::new(&trace, &objects)
            .faults(&model)
            .retry(RetryPolicy::new(2, 2))
            .sweep(SweepOptions::new(
                &[PolicyKind::RateProfile, PolicyKind::NoCache],
                &[0.2, 0.5],
                &stats.demands,
                1,
            ))
            .unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.report.conserves_delivery(), "{}", p.policy);
        }
    }

    #[test]
    fn sweep_honours_the_flight_recorder() {
        let (trace, objects) = setup(1, 400);
        let stats = WorkloadStats::compute(&trace, &objects);
        let model = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(50),
            until: Tick::new(90),
        }]);
        let kinds = [PolicyKind::NoCache, PolicyKind::RateProfile];
        let session = || {
            ReplaySession::new(&trace, &objects)
                .faults(&model)
                .degrade(DegradationPolicy::Fail)
        };
        let options = || SweepOptions::new(&kinds, &[0.3], &stats.demands, 1);
        let points = session().flight_recorder(3).sweep(options()).unwrap();
        // Each point's postmortems are the ones its own run records.
        for (point, kind) in points.iter().zip(kinds) {
            let mut policy = build_policy(kind, point.capacity, &stats.demands, 1);
            let replay = ReplaySession::new(&trace, &objects)
                .policy(policy.as_mut())
                .faults(&model)
                .degrade(DegradationPolicy::Fail)
                .flight_recorder(3)
                .run()
                .unwrap();
            assert_eq!(point.postmortems, replay.postmortems, "{}", point.policy);
            assert_eq!(point.warnings, replay.warnings, "{}", point.policy);
        }
        assert!(!points[0].postmortems.is_empty());
        // Without the recorder a sweep keeps none.
        let bare = session().sweep(options()).unwrap();
        assert!(bare.iter().all(|p| p.postmortems.is_empty()));
    }

    #[test]
    fn compiled_sweep_matches_reference_sweep() {
        let (trace, objects) = setup(2, 400);
        let stats = WorkloadStats::compute(&trace, &objects);
        let net = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
        let kinds = [PolicyKind::Gds, PolicyKind::RateProfile];
        let fractions = [0.2, 0.4];
        let points = ReplaySession::new(&trace, &objects)
            .network(&net)
            .sweep(SweepOptions::new(&kinds, &fractions, &stats.demands, 3))
            .unwrap();
        assert_eq!(points.len(), kinds.len() * fractions.len());
        for (point, (kind, fraction)) in points.iter().zip(
            kinds
                .iter()
                .flat_map(|k| fractions.iter().map(move |f| (*k, *f))),
        ) {
            assert_eq!(point.policy, kind.label());
            assert_eq!(point.cache_fraction, fraction);
            let mut policy = build_policy(kind, point.capacity, &stats.demands, 3);
            let reference = oracle(&trace, &objects, &net, None, policy.as_mut());
            assert_eq!(point.report, reference, "{}@{}", point.policy, fraction);
        }
    }

    #[test]
    fn compiled_run_with_series_and_audit_matches_reference() {
        let (trace, objects) = setup(2, 500);
        let cap = objects.total_size().scale(0.3);
        let mut p = RateProfile::new(cap, RateProfileConfig::default());
        let mut cost = CostObserver::new(p.name(), &trace.name, "column");
        let mut series = SeriesObserver::new(64);
        let mut audit = AuditObserver::new();
        ReplayEngine::new(&objects).replay(
            &trace,
            &mut p,
            &mut [&mut cost, &mut series, &mut audit],
        );
        let reference_series = series.into_series();
        let reference_audit = audit.into_report();
        for chunk in [7, DEFAULT_CHUNK, usize::MAX] {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            let fast = ReplaySession::new(&trace, &objects)
                .policy(&mut p)
                .audited()
                .series(64)
                .chunk_size(chunk)
                .run()
                .unwrap();
            assert_eq!(cost.clone().into_report(), fast.report, "chunk {chunk}");
            assert_eq!(reference_series, fast.series, "chunk {chunk}");
            let fa = fast.audit.unwrap();
            assert!(reference_audit.is_clean() && fa.is_clean());
            assert_eq!(reference_audit.accesses, fa.accesses);
            assert_eq!(reference_audit.deep_checks, fa.deep_checks);
        }
    }

    #[test]
    fn degenerate_topology_matches_flat_network() {
        let (trace, objects) = setup(2, 500);
        let cap = objects.total_size().scale(0.3);
        let net = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
        let flat = {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            oracle(&trace, &objects, &net, None, &mut p)
        };
        let topo = Topology::flat(Box::new(PerServerMultipliers::new(vec![1.0, 2.0]).unwrap()));
        for chunk in [1, DEFAULT_CHUNK, usize::MAX] {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            let tiered = ReplaySession::new(&trace, &objects)
                .topology(&topo)
                .tier_policy(&mut p)
                .chunk_size(chunk)
                .run()
                .unwrap()
                .report;
            assert_eq!(flat, tiered, "chunk {chunk}");
            assert_eq!(tiered.relay_cost, Bytes::ZERO);
        }
    }

    #[test]
    fn degenerate_topology_matches_flat_network_under_faults() {
        let (trace, objects) = setup(2, 500);
        let cap = objects.total_size().scale(0.3);
        let model = FlakyLinks::new(7, 0.05, 0.1, 4.0);
        let flat = {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            let plan = FaultPlan {
                model: &model,
                retry: RetryPolicy::new(2, 4),
                degradation: DegradationPolicy::default(),
            };
            oracle(&trace, &objects, &Uniform, Some(plan), &mut p)
        };
        let topo = Topology::flat(Box::new(Uniform));
        let mut p = RateProfile::new(cap, RateProfileConfig::default());
        let tiered = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .tier_policy(&mut p)
            .faults(&model)
            .retry(RetryPolicy::new(2, 4))
            .run()
            .unwrap()
            .report;
        assert_eq!(flat, tiered);
    }

    #[test]
    fn regional_cache_absorbs_origin_outage() {
        let (trace, objects) = setup(1, 600);
        let outage = OutageWindows::new(vec![Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(400),
        }]);
        // Fault only the origin link; the inner site↔regional link
        // stays healthy.
        let model = LinkScoped::new(outage, 1);
        let run = |regional_kind: PolicyKind| {
            let topo = Topology::two_tier(0.25, Box::new(Uniform)).unwrap();
            let mut site = build_policy(PolicyKind::NoCache, Bytes::ZERO, &[], 0);
            let mut regional = build_policy(regional_kind, objects.total_size(), &[], 0);
            ReplaySession::new(&trace, &objects)
                .topology(&topo)
                .tier_policy(site.as_mut())
                .tier_policy(regional.as_mut())
                .faults(&model)
                .degrade(DegradationPolicy::Fail)
                .run()
                .unwrap()
                .report
        };
        let cold = run(PolicyKind::NoCache);
        let warm = run(PolicyKind::Lru);
        // With no regional cache every slice crosses the dead origin link.
        assert!(cold.availability() < 1.0);
        // A warm regional cache serves its hits below the outage.
        assert!(warm.availability() > cold.availability());
        assert!(warm.failed_bytes < cold.failed_bytes);
        assert!(warm.relay_cost > Bytes::ZERO);
        assert!(warm.conserves_delivery() && cold.conserves_delivery());
    }

    #[test]
    fn per_tier_windows_sum_to_the_report() {
        let (trace, objects) = setup(2, 400);
        let topo = Topology::three_tier(0.1, 0.25, Box::new(Uniform)).unwrap();
        // Bypass-yield policies actually forward misses up the
        // hierarchy (in-line policies like GDS load on every miss and
        // would keep the walk pinned at the site tier).
        let mut site = build_policy(
            PolicyKind::RateProfile,
            objects.total_size().scale(0.05),
            &[],
            0,
        );
        let mut regional = build_policy(
            PolicyKind::RateProfile,
            objects.total_size().scale(0.3),
            &[],
            0,
        );
        let mut national = build_policy(PolicyKind::Lru, objects.total_size(), &[], 0);
        let mut per_tier = PerTierObserver::new();
        let replay = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .tier_policy(site.as_mut())
            .tier_policy(regional.as_mut())
            .tier_policy(national.as_mut())
            .observe(&mut per_tier)
            .run()
            .unwrap();
        let windows = per_tier.into_windows();
        assert!(windows.len() >= 2, "expected several consulted tiers");
        let r = &replay.report;
        let sum =
            |f: &dyn Fn(&QueryWindow) -> Bytes| windows.iter().map(|(_, w)| f(w)).sum::<Bytes>();
        assert_eq!(sum(&|w| w.bypass_cost), r.bypass_cost);
        assert_eq!(sum(&|w| w.fetch_cost), r.fetch_cost);
        assert_eq!(sum(&|w| w.relay_cost), r.relay_cost);
        assert_eq!(sum(&|w| w.cache_served), r.cache_served);
        assert_eq!(sum(&|w| w.bypass_served), r.bypass_served);
        assert!(r.relay_cost > Bytes::ZERO);
        assert!(r.conserves_delivery());
    }

    #[test]
    fn tiered_sweep_matches_compiled_tiered_sweep() {
        let (trace, objects) = setup(2, 400);
        let stats = WorkloadStats::compute(&trace, &objects);
        let topo = Topology::two_tier(0.25, Box::new(Uniform)).unwrap();
        let kinds = [PolicyKind::Gds, PolicyKind::NoCache];
        let fractions = [0.2, 0.5];
        let points = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .sweep(SweepOptions::new(&kinds, &fractions, &stats.demands, 3))
            .unwrap();
        assert_eq!(points.len(), 4);
        for point in &points {
            let kind = kinds
                .into_iter()
                .find(|k| k.label() == point.policy)
                .unwrap();
            let mut tiers: Vec<_> = topo
                .tiers()
                .iter()
                .map(|spec| {
                    let cap = objects
                        .total_size()
                        .scale(point.cache_fraction * spec.capacity_scale);
                    build_policy(kind, cap, &stats.demands, 3)
                })
                .collect();
            let name = tiers[0].name();
            let mut stack: Vec<&mut dyn CachePolicy> = tiers
                .iter_mut()
                .map(|p| p.as_mut() as &mut dyn CachePolicy)
                .collect();
            let mut cost = CostObserver::new(name, &trace.name, "column");
            replay_tiered(&trace, &objects, &topo, &mut stack, None, &mut [&mut cost]);
            assert_eq!(
                point.report,
                cost.into_report(),
                "{}@{}",
                point.policy,
                point.cache_fraction
            );
            assert!(point.report.conserves_delivery());
        }
        // Two-tier bypasses relay over the inner link: the relay column
        // is live in at least the no-cache rows.
        assert!(points.iter().any(|p| p.report.relay_cost > Bytes::ZERO));
    }

    #[test]
    fn topology_with_flat_policy_is_a_config_error() {
        let (trace, objects) = setup(1, 50);
        let topo = Topology::flat(Box::new(Uniform));
        let mut p = NoCache;
        let err = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .policy(&mut p)
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn tier_policy_count_must_match_topology_depth() {
        let (trace, objects) = setup(1, 50);
        let topo = Topology::two_tier(0.5, Box::new(Uniform)).unwrap();
        let mut p = NoCache;
        let err = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .tier_policy(&mut p)
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn tier_policy_without_topology_is_a_config_error() {
        let (trace, objects) = setup(1, 50);
        let mut p = NoCache;
        let err = ReplaySession::new(&trace, &objects)
            .tier_policy(&mut p)
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn sweep_with_tier_policy_is_a_config_error() {
        let (trace, objects) = setup(1, 50);
        let stats = WorkloadStats::compute(&trace, &objects);
        let topo = Topology::flat(Box::new(Uniform));
        let mut p = NoCache;
        let err = ReplaySession::new(&trace, &objects)
            .topology(&topo)
            .tier_policy(&mut p)
            .sweep(SweepOptions::new(
                &[PolicyKind::NoCache],
                &[0.5],
                &stats.demands,
                1,
            ))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn compiled_fast_path_matches_reference_under_faults() {
        let (trace, objects) = setup(2, 500);
        let cap = objects.total_size().scale(0.3);
        let model = FlakyLinks::new(7, 0.05, 0.1, 4.0);
        let plan = FaultPlan {
            model: &model,
            retry: RetryPolicy::new(2, 4),
            degradation: DegradationPolicy::Fail,
        };
        let mut p = RateProfile::new(cap, RateProfileConfig::default());
        let reference = oracle(&trace, &objects, &Uniform, Some(plan), &mut p);
        let mut p = RateProfile::new(cap, RateProfileConfig::default());
        let compiled = ReplaySession::new(&trace, &objects)
            .policy(&mut p)
            .faults(&model)
            .retry(RetryPolicy::new(2, 4))
            .degrade(DegradationPolicy::Fail)
            .unaudited()
            .compiled()
            .run()
            .unwrap()
            .report;
        assert_eq!(reference, compiled);
        assert!(reference.failed_queries > 0 || reference.retries > 0);
    }
}
