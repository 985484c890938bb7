//! The replay event model and the per-query engine.
//!
//! Every replay in `byc-federation` speaks one stream:
//!
//! ```text
//! TraceQuery → Access stream → Decision → CostEvent → observers
//! ```
//!
//! One function interprets a `Decision` as WAN cost: the tier walk,
//! `serve_slice_tiered`, at any depth. A flat network is its one-tier
//! case. The chunked replay kernel in [`crate::stream`] runs it for
//! every session replay, short-cutting only the report-only one-tier
//! fault-free lane into [`CostObserver`]'s window. The [`ReplayEngine`]
//! in this module resolves and prices each query as it goes and walks
//! each slice through the same function: it serves the [`Mediator`] and
//! the semantic baseline, and as [`ReplayEngine::replay`] (flat) and
//! [`replay_tiered`] it is the uncompiled oracle the equivalence suites
//! hold the kernel to. Everything downstream is an [`Observer`]
//! composition:
//!
//! * [`CostObserver`] — accumulates a [`CostReport`] (Tables 1–2);
//! * [`SeriesObserver`] — samples the cumulative-cost curves (Figs 7–8);
//! * [`AuditObserver`] — validates the decision stream with a
//!   [`DecisionAuditor`] shadow model;
//! * [`PerServerObserver`] — per-[`ServerId`] `D_S`/`D_L`/`D_C`
//!   breakdown for heterogeneous-network experiments.
//!
//! [`Mediator`]: crate::mediator::Mediator

use crate::accounting::CostReport;
use crate::compiled::CompiledSlice;
use crate::faults::{spiked_cost, FaultPlan};
use crate::network::{NetworkModel, Pricing, Topology};
use crate::simulator::SeriesPoint;
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::access::Access;
use byc_core::audit::{AuditReport, DecisionAuditor};
use byc_core::policy::{CachePolicy, Decision};
use byc_core::shard::ShardPlan;
use byc_types::{Bytes, ObjectId, ServerId, Tick};
use byc_workload::{Trace, TraceQuery};
use std::collections::{BTreeMap, VecDeque};

/// The cost consequences of serving one object slice of one query — what
/// the engine's kernel emits to every observer.
///
/// Exactly one of the `hits` / `bypasses` / `loads` counters is 1 (they
/// are counters, not flags, so observers can sum them blindly), and the
/// byte fields are pre-split by decision: observers accumulate without
/// ever matching on [`Decision`] themselves.
///
/// Byte fields come in two currencies. *Delivered* quantities
/// (`delivered`, `bypass_served`, `cache_served`) are raw result bytes —
/// what the client receives, independent of link costs. *WAN* quantities
/// (`bypass_cost`, `fetch_cost`) are priced through the engine's
/// [`NetworkModel`]; under [`Uniform`](crate::network::Uniform) the two
/// currencies coincide.
#[derive(Clone, Copy)]
pub struct CostEvent<'a> {
    /// Query ordinal within the replay.
    pub query: usize,
    /// The cacheable object served.
    pub object: ObjectId,
    /// The object's home server (prices the WAN quantities).
    pub server: ServerId,
    /// The caching tier this event belongs to, bottom-up (0 = site tier).
    /// Always 0 on the flat topology. In tiered replays a slice emits one
    /// event per consulted tier: inner-tier bypasses carry only their
    /// relay traffic, and the resolving tier carries the delivery.
    pub tier: u32,
    /// The policy-visible access, when a policy was consulted (`None` on
    /// the query-level path used by the semantic baseline).
    pub access: Option<&'a Access>,
    /// Raw result bytes delivered to the client for this slice (`D_A`).
    pub delivered: Bytes,
    /// Raw result bytes shipped from the server (nonzero iff bypassed).
    pub bypass_served: Bytes,
    /// WAN cost of the bypassed slice (`D_S`, network-priced).
    pub bypass_cost: Bytes,
    /// WAN cost of the cache load (`D_L`, network-priced; nonzero iff
    /// loaded).
    pub fetch_cost: Bytes,
    /// WAN cost of relaying a slice resolved *above* this tier over the
    /// link directly above it (network-priced). Nonzero only for
    /// inner-tier bypass events of a tiered topology; always zero on the
    /// flat topology.
    pub relay_cost: Bytes,
    /// Raw result bytes served out of the cache (`D_C`).
    pub cache_served: Bytes,
    /// WAN bytes wasted on failed transfer attempts of this slice
    /// (network-priced; zero without a fault layer).
    pub retried_bytes: Bytes,
    /// Raw result bytes this slice failed to deliver (nonzero iff
    /// `failed`).
    pub failed_bytes: Bytes,
    /// 1 iff the decision was a hit.
    pub hits: u64,
    /// 1 iff the decision was a bypass.
    pub bypasses: u64,
    /// 1 iff the decision was a load.
    pub loads: u64,
    /// Objects evicted by this decision.
    pub evictions: u64,
    /// Failed transfer attempts of this slice (the retry count).
    pub retries: u64,
    /// 1 iff every attempt failed and the slice delivered nothing.
    pub failed: u64,
    /// 1 iff every attempt failed and the slice was served from the
    /// stale local copy instead.
    pub degraded: u64,
    /// The policy's decision, when a policy was consulted.
    pub decision: Option<&'a Decision>,
    /// The deciding policy, for observers that introspect cache state
    /// (the auditor's post-decision checks).
    pub policy: Option<&'a dyn CachePolicy>,
}

impl<'a> CostEvent<'a> {
    /// An event for one slice at one tier with every byte field and
    /// counter zero; the conversion fills in its cost split.
    pub(crate) fn new(
        query: usize,
        object: ObjectId,
        server: ServerId,
        tier: u32,
        access: Option<&'a Access>,
        decision: Option<&'a Decision>,
        policy: Option<&'a dyn CachePolicy>,
    ) -> Self {
        CostEvent {
            query,
            object,
            server,
            tier,
            access,
            delivered: Bytes::ZERO,
            bypass_served: Bytes::ZERO,
            bypass_cost: Bytes::ZERO,
            fetch_cost: Bytes::ZERO,
            relay_cost: Bytes::ZERO,
            cache_served: Bytes::ZERO,
            retried_bytes: Bytes::ZERO,
            failed_bytes: Bytes::ZERO,
            hits: 0,
            bypasses: 0,
            loads: 0,
            evictions: 0,
            retries: 0,
            failed: 0,
            degraded: 0,
            decision,
            policy,
        }
    }
}

impl std::fmt::Debug for CostEvent<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostEvent")
            .field("query", &self.query)
            .field("object", &self.object)
            .field("server", &self.server)
            .field("tier", &self.tier)
            .field("delivered", &self.delivered)
            .field("bypass_served", &self.bypass_served)
            .field("bypass_cost", &self.bypass_cost)
            .field("fetch_cost", &self.fetch_cost)
            .field("relay_cost", &self.relay_cost)
            .field("cache_served", &self.cache_served)
            .field("retried_bytes", &self.retried_bytes)
            .field("failed_bytes", &self.failed_bytes)
            .field("hits", &self.hits)
            .field("bypasses", &self.bypasses)
            .field("loads", &self.loads)
            .field("evictions", &self.evictions)
            .field("retries", &self.retries)
            .field("failed", &self.failed)
            .field("degraded", &self.degraded)
            .field("decision", &self.decision)
            .finish_non_exhaustive()
    }
}

/// A composable consumer of the engine's replay stream.
///
/// All hooks default to no-ops; implement only what the observer needs.
/// The engine guarantees the call order `on_query_start → on_access* →
/// on_query_end` per query, and exactly one `finish` after the last
/// query of a full replay.
pub trait Observer {
    /// A query is about to be served.
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {}

    /// One object slice was served; `event` carries its cost split.
    fn on_access(&mut self, _event: &CostEvent<'_>) {}

    /// The query's last slice was served.
    fn on_query_end(&mut self, _index: usize, _query: &TraceQuery) {}

    /// The replay is over. `policy` is the replayed policy when one was
    /// driving the decisions (`None` on the query-level path).
    fn finish(&mut self, _policy: Option<&dyn CachePolicy>) {}

    /// Whether this observer consumes per-access events. Observers that
    /// only tick on query boundaries (span tracers chunking by query
    /// index) return `false`, and every replay loop — the kernel's
    /// observer sink and the engine's — then skips them in its
    /// per-slice dispatch:
    /// attaching such an observer costs two virtual calls per *query*,
    /// not per slice.
    fn wants_accesses(&self) -> bool {
        true
    }

    /// Deferred non-fatal problems to surface to the user once the
    /// replay is over (a telemetry sink's parked IO error, a bounded
    /// recorder's truncation). Polled by the session after `finish`;
    /// the default is no warnings.
    fn warnings(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// Stable-partition `observers` so those wanting per-access dispatch
/// come first, returning how many do. Replay loops partition once, then
/// dispatch `on_access` only to that prefix — query-boundary observers
/// ([`Observer::wants_accesses`]` == false`) never appear on the
/// per-slice hot path. Relative order is preserved within both groups,
/// and the partition is idempotent.
pub(crate) fn partition_access_observers(observers: &mut [&mut dyn Observer]) -> usize {
    let mut split = 0;
    for i in 0..observers.len() {
        let wants = observers.get(i).is_some_and(|o| o.wants_accesses());
        if wants {
            if let Some(run) = observers.get_mut(split..=i) {
                run.rotate_right(1);
            }
            split += 1;
        }
    }
    split
}

/// Decompose one trace query into `(object, raw yield)` slices at the
/// granularity of `objects`. Slices appear in the query's own
/// table/column order; references that do not resolve to a cacheable
/// object are skipped.
pub fn decompose(query: &TraceQuery, objects: &ObjectCatalog) -> Vec<(ObjectId, Bytes)> {
    let mut out = Vec::new();
    match objects.granularity() {
        Granularity::Table => {
            for &(t, y) in &query.table_yields {
                if let Ok(o) = objects.object_for_table(t) {
                    out.push((o, y));
                }
            }
        }
        Granularity::Column => {
            for &(c, y) in &query.column_yields {
                if let Ok(o) = objects.object_for_column(c) {
                    out.push((o, y));
                }
            }
        }
    }
    out
}

/// Resolve a slice whose retry budget is exhausted, per the plan's
/// [`DegradationPolicy`](crate::faults::DegradationPolicy): serve the
/// stale local copy (degraded, cache-tier delivery, zero fresh WAN)
/// or fail the slice (nothing delivered; the undeliverable yield is
/// tracked in `failed_bytes` so availability and the fault-free
/// reconciliation stay exact).
fn degrade_slice(plan: &FaultPlan<'_>, event: &mut CostEvent<'_>, raw_yield: Bytes) {
    match plan.degradation {
        crate::faults::DegradationPolicy::ServeStale => {
            event.degraded = 1;
            event.cache_served = raw_yield;
        }
        crate::faults::DegradationPolicy::Fail => {
            event.failed = 1;
            event.delivered = Bytes::ZERO;
            event.failed_bytes = raw_yield;
        }
    }
}

/// Resolve one object slice through a tier hierarchy: the one
/// conversion of a [`Decision`] into [`CostEvent`]s. A flat network is
/// the one-tier stack. The replay kernel ([`crate::stream`]) runs it
/// for every slice except the report-only one-tier fault-free lane,
/// which settles in place through [`CostObserver::settle`]; the
/// [`ReplayEngine`] runs it for every slice with catalog-and-network
/// price providers.
///
/// The walk consults tier 0 first. A `Bypass` forwards the request one
/// hop up; a `Hit` at tier `r` serves the slice from that tier, relaying
/// the yield down over links `0..r`; a `Load` at tier `t` fetches the
/// whole object from the origin over links `t..depth` and serves the
/// yield down over links `0..t`; a bypass at the last tier ships the
/// slice from the origin over every link. One [`CostEvent`] is emitted
/// per *consulted* tier: inner bypasses carry only their link's relay
/// cost, the resolving tier carries the delivery, retry accounting, and
/// degradation flags. With a single tier this is the paper's flat rule
/// (§3): a hit is served from the cache (`D_C`), a bypass ships the
/// yield from the home server (`D_S`), and a load fetches the object at
/// its priced `f_i` (`D_L`).
///
/// Fault exposure follows the bytes: the transfer crosses the link set
/// of the resolution (nothing for a tier-0 hit), fails when any link in
/// the set fails, and multiplies surviving links' cost spikes.
///
/// `tiers` holds one policy per caching tier, bottom-up (index 0 is the
/// site tier nearest the clients). `yield_price(l)` prices the slice's
/// yield over link `l`; `fetch_suffix(t)` prices the object's origin
/// fetch down to tier `t`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn serve_slice_tiered(
    index: usize,
    time: Tick,
    object: ObjectId,
    server: ServerId,
    raw_yield: Bytes,
    size: Bytes,
    tiers: &mut [&mut dyn CachePolicy],
    faults: Option<&FaultPlan<'_>>,
    yield_price: impl Fn(usize) -> Bytes,
    fetch_suffix: impl Fn(usize) -> Bytes,
    mut emit: impl FnMut(&CostEvent<'_>),
) {
    let access_at = |t: usize| Access {
        object,
        time,
        yield_bytes: raw_yield,
        size,
        fetch_cost: fetch_suffix(t),
    };
    // Phase 1: the decision walk, bottom-up until a Hit or Load resolves
    // the slice (or the last tier bypasses to the origin). Decisions are
    // taken before any fault is consulted, so the decision stream — and
    // every tier policy's state evolution — is fault-independent. Every
    // tier below the resolving one bypassed, so only the resolution is
    // kept.
    let depth = tiers.len();
    let mut resolution = None;
    for (t, tier) in tiers.iter_mut().enumerate() {
        let access = access_at(t);
        let decision = tier.on_access(&access);
        if !decision.is_bypass() || t.saturating_add(1) == depth {
            resolution = Some((t, access, decision));
            break;
        }
    }
    let Some((top, access, decision)) = resolution else {
        return; // zero-tier topology: validated unreachable
    };

    // Phase 2: resolve the transfer over the links the bytes traverse.
    // A tier-0 hit crosses no WAN link and never consults the fault
    // model.
    let links: std::ops::Range<u32> = match decision {
        Decision::Hit => 0..u32::try_from(top).unwrap_or(u32::MAX),
        _ => 0..u32::try_from(depth).unwrap_or(u32::MAX),
    };
    let (multiplier, failed_attempts, delivered_ok) = match faults {
        Some(plan) if !links.is_empty() => {
            let res = plan.fetch_path(index, time, object, server, links);
            match res.delivered {
                Some(m) => (m, res.failed_attempts, true),
                None => (1.0, res.failed_attempts, false),
            }
        }
        _ => (1.0, 0u32, true),
    };
    // Nominal priced cost of the whole transfer path, for retry-waste
    // accounting. Computed only when attempts actually failed.
    let wasted = if failed_attempts == 0 {
        Bytes::ZERO
    } else {
        let downstream: Bytes = (0..top).map(&yield_price).sum();
        let nominal = match decision {
            Decision::Hit => downstream,
            Decision::Load { .. } => downstream + fetch_suffix(top),
            Decision::Bypass => downstream + yield_price(top),
        };
        FaultPlan::wasted_bytes(nominal, failed_attempts)
    };

    // Phase 3: emit one event per consulted tier. Inner tiers (below the
    // resolution) bypassed and carry only their relay traffic: when the
    // transfer delivered, the yield crossed their link.
    let bypass = Decision::Bypass;
    for (t, tier) in tiers.iter().enumerate().take(top) {
        let inner = access_at(t);
        let mut event = CostEvent::new(
            index,
            object,
            server,
            u32::try_from(t).unwrap_or(u32::MAX),
            Some(&inner),
            Some(&bypass),
            Some(&**tier),
        );
        event.bypasses = 1;
        if delivered_ok {
            event.relay_cost = spiked_cost(yield_price(t), multiplier);
        }
        emit(&event);
    }
    // The resolving tier carries delivery, retries, and degradation.
    let Some(tier) = tiers.get(top) else { return };
    let mut event = CostEvent::new(
        index,
        object,
        server,
        u32::try_from(top).unwrap_or(u32::MAX),
        Some(&access),
        Some(&decision),
        Some(&**tier),
    );
    event.delivered = raw_yield;
    event.retries = u64::from(failed_attempts);
    event.retried_bytes = wasted;
    match &decision {
        Decision::Hit => {
            event.hits = 1;
            if delivered_ok {
                event.cache_served = raw_yield;
            }
        }
        Decision::Bypass => {
            event.bypasses = 1;
            if delivered_ok {
                event.bypass_served = raw_yield;
                event.bypass_cost = spiked_cost(yield_price(top), multiplier);
            }
        }
        Decision::Load { evictions } => {
            event.loads = 1;
            event.evictions = evictions.len() as u64;
            if delivered_ok {
                event.fetch_cost = spiked_cost(fetch_suffix(top), multiplier);
                event.cache_served = raw_yield;
            }
        }
    }
    if let (false, Some(plan)) = (delivered_ok, faults) {
        degrade_slice(plan, &mut event, raw_yield);
    }
    emit(&event);
}

/// Replay a whole trace through a tier hierarchy the uncompiled way:
/// [`ReplayEngine::replay`]'s per-query loop with every link priced
/// through the topology. This is the tiered oracle the equivalence
/// suites hold the chunked kernel to; no session runs it. `tiers` holds
/// one policy per topology tier, bottom-up.
///
/// Emits the full observer protocol per query but does *not* call
/// [`Observer::finish`]: a per-tier audit observer needs its own tier's
/// policy at finish time, so the caller closes the observers out.
pub fn replay_tiered(
    trace: &Trace,
    objects: &ObjectCatalog,
    topology: &Topology,
    tiers: &mut [&mut dyn CachePolicy],
    faults: Option<&FaultPlan<'_>>,
    observers: &mut [&mut dyn Observer],
) {
    let engine = ReplayEngine {
        objects,
        pricing: Pricing::Tiered(topology),
        faults: faults.copied(),
    };
    engine.replay_stack(trace, tiers, observers);
}

/// The per-query engine: resolves each query against the catalog and
/// prices it as it goes, with no compilation step, then walks every
/// slice through the tier walk. The mediator and the semantic baseline
/// serve queries through it one at a time; [`ReplayEngine::replay`]
/// (a flat network, priced as one tier) and [`replay_tiered`] are the
/// uncompiled oracles the equivalence suites hold the chunked kernel
/// ([`crate::stream`]) to.
///
/// An engine is a stateless view over an [`ObjectCatalog`] and its
/// pricing; all replay state lives in the policies and the observers,
/// so one engine can serve any number of replays.
pub struct ReplayEngine<'a> {
    objects: &'a ObjectCatalog,
    pricing: Pricing<'a>,
    faults: Option<FaultPlan<'a>>,
}

impl<'a> ReplayEngine<'a> {
    /// An engine over `objects` on a uniform network (the BYU regime;
    /// pricing is the identity).
    pub fn new(objects: &'a ObjectCatalog) -> Self {
        Self::with_network(objects, &crate::network::UNIFORM)
    }

    /// An engine that prices every object's traffic by its home server's
    /// link cost.
    pub fn with_network(objects: &'a ObjectCatalog, network: &'a dyn NetworkModel) -> Self {
        ReplayEngine {
            objects,
            pricing: Pricing::Flat(network),
            faults: None,
        }
    }

    /// Attach a fault layer: WAN transfers resolve through `plan`'s
    /// model/retry/degradation instead of always succeeding. Without
    /// this the engine runs the exact fault-free path (bit-identical to
    /// an engine with no fault layer compiled in).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan<'a>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The object view this engine decomposes queries against.
    pub fn objects(&self) -> &ObjectCatalog {
        self.objects
    }

    /// The policy-visible access for one object slice. `yield_bytes` is
    /// the raw delivered result — yield is a property of the query, not
    /// of the network — while `fetch_cost` is priced by the object's
    /// home-server link. This is the BYHR view (paper §3): policies weigh
    /// raw rent (bypass yield) against the *true* buy price `f_i`.
    /// Pricing both sides would cancel out of every rent-to-buy ratio
    /// and blind ratio policies to the network entirely.
    pub fn access_for(&self, object: ObjectId, raw_yield: Bytes, time: Tick) -> Access {
        let info = self.objects.info(object);
        Access {
            object,
            time,
            yield_bytes: raw_yield,
            size: info.size,
            fetch_cost: self.pricing.fetch_suffix(0, info.server, info.fetch_cost),
        }
    }

    /// Serve one query through `tiers`, one policy per priced tier,
    /// bottom-up (a flat network takes one), emitting events to
    /// `observers`: every slice of [`decompose`] goes through the tier
    /// walk.
    pub fn serve_query(
        &self,
        index: usize,
        time: Tick,
        query: &TraceQuery,
        tiers: &mut [&mut dyn CachePolicy],
        observers: &mut [&mut dyn Observer],
    ) {
        // Partition is idempotent, so replaying query-by-query through
        // here keeps the per-slice dispatch prefix stable at no cost.
        let access_count = partition_access_observers(observers);
        for obs in observers.iter_mut() {
            obs.on_query_start(index, query);
        }
        for (object, raw_yield) in decompose(query, self.objects) {
            let info = self.objects.info(object);
            let (server, fetch) = (info.server, info.fetch_cost);
            serve_slice_tiered(
                index,
                time,
                object,
                server,
                raw_yield,
                info.size,
                tiers,
                self.faults.as_ref(),
                |l| self.pricing.link_price(l, server, raw_yield),
                |t| self.pricing.fetch_suffix(t, server, fetch),
                |event| {
                    for obs in observers.iter_mut().take(access_count) {
                        obs.on_access(event);
                    }
                },
            );
        }
        for obs in observers.iter_mut() {
            obs.on_query_end(index, query);
        }
    }

    /// Serve one query at *query* granularity: the whole result is either
    /// cache-served (`hit`) or shipped from the servers. Used by the
    /// semantic (query-result) baseline, which has no per-object policy —
    /// events carry `decision: None` / `policy: None`, but still one
    /// event per object slice so per-server attribution works.
    pub fn serve_query_level(
        &self,
        index: usize,
        query: &TraceQuery,
        hit: bool,
        observers: &mut [&mut dyn Observer],
    ) {
        let access_count = partition_access_observers(observers);
        for obs in observers.iter_mut() {
            obs.on_query_start(index, query);
        }
        for (object, raw_yield) in decompose(query, self.objects) {
            let server = self.objects.info(object).server;
            let mut event = CostEvent::new(index, object, server, 0, None, None, None);
            event.delivered = raw_yield;
            if hit {
                event.hits = 1;
                event.cache_served = raw_yield;
            } else {
                event.bypasses = 1;
                event.bypass_served = raw_yield;
                event.bypass_cost = self.pricing.link_price(0, server, raw_yield);
            }
            for obs in observers.iter_mut().take(access_count) {
                obs.on_access(&event);
            }
        }
        for obs in observers.iter_mut() {
            obs.on_query_end(index, query);
        }
    }

    /// Replay a whole trace: every query through [`Self::serve_query`]
    /// on the one-tier stack `policy` (the query index is the policy
    /// clock), then `finish` on every observer with the policy attached.
    /// This is the flat uncompiled oracle; sessions replay through the
    /// chunked kernel instead.
    pub fn replay(
        &self,
        trace: &Trace,
        policy: &mut dyn CachePolicy,
        observers: &mut [&mut dyn Observer],
    ) {
        self.replay_stack(trace, &mut [&mut *policy], observers);
        let policy: &dyn CachePolicy = policy;
        for obs in observers.iter_mut() {
            obs.finish(Some(policy));
        }
    }

    /// The per-query loop both oracles share, without `finish`.
    fn replay_stack(
        &self,
        trace: &Trace,
        tiers: &mut [&mut dyn CachePolicy],
        observers: &mut [&mut dyn Observer],
    ) {
        for (i, q) in trace.queries.iter().enumerate() {
            self.serve_query(i, Tick::new(i as u64), q, tiers, observers);
        }
    }
}

/// The shared per-window accumulation every byte-summing observer runs:
/// one field-by-field absorption of a [`CostEvent`] stream over some
/// window (a whole replay, one query, one server, one metric series).
///
/// [`CostObserver`], [`SeriesObserver`], and [`PerServerObserver`] each
/// used to carry their own copy of this `+=` block; they now all absorb
/// through here, so a new [`CostEvent`] field has exactly one place to be
/// threaded into the accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryWindow {
    /// Raw result bytes delivered to the client (`D_A` share).
    pub delivered: Bytes,
    /// Raw result bytes shipped from the servers (bypassed slices).
    pub bypass_served: Bytes,
    /// WAN cost of bypassed slices (`D_S` share, network-priced).
    pub bypass_cost: Bytes,
    /// WAN cost of cache loads (`D_L` share, network-priced).
    pub fetch_cost: Bytes,
    /// WAN cost of relaying slices over inner topology links
    /// (network-priced; zero on the flat topology).
    pub relay_cost: Bytes,
    /// Raw result bytes served out of the cache (`D_C` share).
    pub cache_served: Bytes,
    /// WAN bytes wasted on failed transfer attempts (network-priced).
    pub retried_bytes: Bytes,
    /// Raw result bytes that failed to deliver (failed slices).
    pub failed_bytes: Bytes,
    /// Hit decisions.
    pub hits: u64,
    /// Bypass decisions.
    pub bypasses: u64,
    /// Load decisions.
    pub loads: u64,
    /// Objects evicted.
    pub evictions: u64,
    /// Failed transfer attempts (retries).
    pub retries: u64,
    /// Slices that delivered nothing (every attempt failed, degradation
    /// policy `Fail`).
    pub failed_slices: u64,
    /// Slices served from the stale local copy (every attempt failed,
    /// degradation policy `ServeStale`).
    pub degraded_slices: u64,
}

impl QueryWindow {
    /// Accumulate one event.
    pub fn absorb(&mut self, event: &CostEvent<'_>) {
        self.delivered += event.delivered;
        self.bypass_served += event.bypass_served;
        self.bypass_cost += event.bypass_cost;
        self.fetch_cost += event.fetch_cost;
        self.relay_cost += event.relay_cost;
        self.cache_served += event.cache_served;
        self.retried_bytes += event.retried_bytes;
        self.failed_bytes += event.failed_bytes;
        self.hits += event.hits;
        self.bypasses += event.bypasses;
        self.loads += event.loads;
        self.evictions += event.evictions;
        self.retries += event.retries;
        self.failed_slices += event.failed;
        self.degraded_slices += event.degraded;
    }

    /// Fold another window into this one (registry merging).
    pub fn merge(&mut self, other: &QueryWindow) {
        self.delivered += other.delivered;
        self.bypass_served += other.bypass_served;
        self.bypass_cost += other.bypass_cost;
        self.fetch_cost += other.fetch_cost;
        self.relay_cost += other.relay_cost;
        self.cache_served += other.cache_served;
        self.retried_bytes += other.retried_bytes;
        self.failed_bytes += other.failed_bytes;
        self.hits += other.hits;
        self.bypasses += other.bypasses;
        self.loads += other.loads;
        self.evictions += other.evictions;
        self.retries += other.retries;
        self.failed_slices += other.failed_slices;
        self.degraded_slices += other.degraded_slices;
    }

    /// WAN traffic of the window: `D_S + D_L` plus inner-link relay
    /// traffic and the bytes wasted on failed transfer attempts (both
    /// zero on a flat fault-free replay).
    pub fn wan_cost(&self) -> Bytes {
        self.bypass_cost + self.fetch_cost + self.relay_cost + self.retried_bytes
    }

    /// Policy decisions absorbed (hits + bypasses + loads).
    pub fn decisions(&self) -> u64 {
        self.hits + self.bypasses + self.loads
    }

    /// Delivery conservation over the window: every delivered byte was
    /// either shipped from a server or served from cache.
    pub fn conserves_delivery(&self) -> bool {
        self.delivered == self.bypass_served + self.cache_served
    }
}

/// Accumulates the [`CostReport`] of a replay (decision counts, the
/// `D_S`/`D_L`/`D_C` byte split, and the conservation fields).
#[derive(Clone, Debug)]
pub struct CostObserver {
    policy: String,
    trace: String,
    granularity: String,
    queries: usize,
    window: QueryWindow,
    /// Fault rollup state: slices of the in-flight query that failed /
    /// degraded, folded into per-*query* counts at `on_query_end`.
    failed_this_query: u64,
    degraded_this_query: u64,
    failed_queries: u64,
    degraded_queries: u64,
}

impl CostObserver {
    /// An observer whose report is headed with the given labels.
    pub fn new(policy: &str, trace: &str, granularity: &str) -> Self {
        CostObserver {
            policy: policy.to_string(),
            trace: trace.to_string(),
            granularity: granularity.to_string(),
            queries: 0,
            window: QueryWindow::default(),
            failed_this_query: 0,
            degraded_this_query: 0,
            failed_queries: 0,
            degraded_queries: 0,
        }
    }

    /// Begin a query window (the trace-free core of `on_query_start`,
    /// shared with the kernel's report sink).
    pub(crate) fn start_query(&mut self) {
        self.queries += 1;
        self.failed_this_query = 0;
        self.degraded_this_query = 0;
    }

    /// Absorb one slice event (the core of `on_access`).
    pub(crate) fn absorb(&mut self, event: &CostEvent<'_>) {
        self.window.absorb(event);
        self.failed_this_query += event.failed;
        self.degraded_this_query += event.degraded;
    }

    /// Settle one fault-free, single-tier decision straight into the
    /// window: the kernel's report-only shortcut past
    /// [`serve_slice_tiered`] + [`Self::absorb`]. Every field written
    /// here sums exactly what that pair would add for a fault-free
    /// one-tier event, in the same order, so the report stays
    /// bit-identical (the equivalence suites pin it).
    pub(crate) fn settle(&mut self, slice: &CompiledSlice, decision: &Decision) {
        let w = &mut self.window;
        w.delivered += slice.raw_yield;
        match decision {
            Decision::Hit => {
                w.hits += 1;
                w.cache_served += slice.raw_yield;
            }
            Decision::Bypass => {
                w.bypasses += 1;
                w.bypass_served += slice.raw_yield;
                w.bypass_cost += slice.priced_yield;
            }
            Decision::Load { evictions } => {
                w.loads += 1;
                w.evictions += evictions.len() as u64;
                w.fetch_cost += slice.priced_fetch;
                w.cache_served += slice.raw_yield;
            }
        }
    }

    /// Close a query window, folding slice faults into per-query counts
    /// (the core of `on_query_end`): a query with any failed slice
    /// surfaced an error to the client; one that only degraded still
    /// answered, just with stale data.
    pub(crate) fn end_query(&mut self) {
        if self.failed_this_query > 0 {
            self.failed_queries += 1;
        } else if self.degraded_this_query > 0 {
            self.degraded_queries += 1;
        }
    }

    /// Take the completed report.
    pub fn into_report(self) -> CostReport {
        let w = self.window;
        CostReport {
            policy: self.policy,
            trace: self.trace,
            granularity: self.granularity,
            queries: self.queries,
            sequence_cost: w.delivered,
            bypass_served: w.bypass_served,
            bypass_cost: w.bypass_cost,
            fetch_cost: w.fetch_cost,
            relay_cost: w.relay_cost,
            cache_served: w.cache_served,
            retried_bytes: w.retried_bytes,
            failed_bytes: w.failed_bytes,
            hits: w.hits,
            bypasses: w.bypasses,
            loads: w.loads,
            evictions: w.evictions,
            retries: w.retries,
            failed_queries: self.failed_queries,
            degraded_queries: self.degraded_queries,
        }
    }
}

impl Observer for CostObserver {
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
        self.start_query();
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.absorb(event);
    }

    fn on_query_end(&mut self, _index: usize, _query: &TraceQuery) {
        self.end_query();
    }
}

/// Samples the cumulative WAN cost every `sample_every` queries, plus the
/// final query (Figs 7–8).
#[derive(Clone, Debug)]
pub struct SeriesObserver {
    every: usize,
    window: QueryWindow,
    seen: usize,
    series: Vec<SeriesPoint>,
}

impl SeriesObserver {
    /// Sample every `sample_every` queries (clamped to at least 1).
    pub fn new(sample_every: usize) -> Self {
        SeriesObserver {
            every: sample_every.max(1),
            window: QueryWindow::default(),
            seen: 0,
            series: Vec::new(),
        }
    }

    /// Take the sampled series.
    pub fn into_series(self) -> Vec<SeriesPoint> {
        self.series
    }
}

impl Observer for SeriesObserver {
    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.window.absorb(event);
    }

    fn on_query_end(&mut self, index: usize, _query: &TraceQuery) {
        self.seen = index + 1;
        if (index + 1).is_multiple_of(self.every) {
            self.series.push(SeriesPoint {
                query: index + 1,
                cumulative_cost: self.window.wan_cost(),
            });
        }
    }

    fn finish(&mut self, _policy: Option<&dyn CachePolicy>) {
        // The final query is always a sample point, even off-stride.
        let already = self.series.last().is_some_and(|p| p.query == self.seen);
        if self.seen > 0 && !already {
            self.series.push(SeriesPoint {
                query: self.seen,
                cumulative_cost: self.window.wan_cost(),
            });
        }
    }
}

/// Validates the decision stream with a [`DecisionAuditor`] shadow model.
///
/// The engine's [`ReplayEngine::replay`] always calls `finish` with the
/// policy, which runs the closing deep check and freezes the report —
/// [`AuditObserver::into_report`] then returns it with no `Option` in the
/// path. Events without a decision (the query-level path) are ignored.
#[derive(Debug)]
pub struct AuditObserver {
    auditor: DecisionAuditor,
    finished: AuditReport,
    /// When set, only events of this tier are audited — tiered replays
    /// run one shadow model per tier (each tier's decision stream is an
    /// independent cache).
    tier: Option<u32>,
    /// When set, only objects this shard owns are audited, against the
    /// shard's own instance inside the tier's
    /// [`ShardedPolicy`](byc_core::ShardedPolicy): each shard caches in
    /// its own share of the capacity, so each gets its own shadow model.
    shard: Option<(ShardPlan, usize)>,
}

impl AuditObserver {
    /// An observer with invariant checking enabled.
    pub fn new() -> Self {
        AuditObserver {
            auditor: DecisionAuditor::new(),
            finished: AuditReport::default(),
            tier: None,
            shard: None,
        }
    }

    /// An observer auditing only the given tier's decision stream.
    /// Tiered replays attach one per tier; the flat path's single
    /// unfiltered observer is the degenerate case.
    pub fn for_tier(tier: u32) -> Self {
        AuditObserver {
            tier: Some(tier),
            ..AuditObserver::new()
        }
    }

    /// An observer auditing one shard of a tier whose policy is a
    /// [`ShardedPolicy`](byc_core::ShardedPolicy) under `plan`: the
    /// slices [`ShardPlan::shard_of`] routes to `shard`, against that
    /// shard's policy instance.
    pub(crate) fn for_shard(tier: u32, plan: ShardPlan, shard: usize) -> Self {
        AuditObserver {
            shard: Some((plan, shard)),
            ..AuditObserver::for_tier(tier)
        }
    }

    /// The tier whose decision stream this observer audits (the site
    /// tier when unfiltered).
    pub(crate) fn tier(&self) -> usize {
        self.tier.and_then(|t| usize::try_from(t).ok()).unwrap_or(0)
    }

    /// The policy this observer audits within the tier's `policy`: the
    /// policy itself, or its shard's instance.
    fn audited<'p>(&self, policy: &'p dyn CachePolicy) -> Option<&'p dyn CachePolicy> {
        match self.shard {
            None => Some(policy),
            Some((_, shard)) => policy
                .as_sharded()
                .and_then(|sharded| sharded.shards().get(shard))
                .map(|p| &**p as &dyn CachePolicy),
        }
    }

    /// The completed report (populated once the replay finished).
    pub fn into_report(self) -> AuditReport {
        self.finished
    }
}

impl Default for AuditObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for AuditObserver {
    fn on_access(&mut self, event: &CostEvent<'_>) {
        if self.tier.is_some_and(|t| t != event.tier)
            || self
                .shard
                .is_some_and(|(plan, shard)| plan.shard_of(event.object) != shard)
        {
            return;
        }
        if let (Some(access), Some(decision), Some(policy)) = (
            event.access,
            event.decision,
            event.policy.and_then(|p| self.audited(p)),
        ) {
            self.auditor.observe(access, decision, policy);
        }
    }

    fn finish(&mut self, policy: Option<&dyn CachePolicy>) {
        if let Some(policy) = policy.and_then(|p| self.audited(p)) {
            self.finished = self.auditor.finish(policy);
        }
    }
}

/// One server's share of a replay's delivery and WAN traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCosts {
    /// The back-end server.
    pub server: ServerId,
    /// Raw result bytes delivered from this server's objects (`D_A` share).
    pub delivered: Bytes,
    /// Raw result bytes shipped from this server (bypassed slices).
    pub bypass_served: Bytes,
    /// WAN cost of this server's bypassed slices (`D_S` share).
    pub bypass_cost: Bytes,
    /// WAN cost of cache loads from this server (`D_L` share).
    pub fetch_cost: Bytes,
    /// WAN cost of relaying this server's slices over inner topology
    /// links (zero on the flat topology).
    pub relay_cost: Bytes,
    /// Raw result bytes of this server's objects served from cache
    /// (`D_C` share).
    pub cache_served: Bytes,
    /// WAN bytes wasted on failed transfer attempts against this server.
    pub retried_bytes: Bytes,
    /// Raw result bytes of this server's objects that failed to deliver.
    pub failed_bytes: Bytes,
    /// Hit decisions on this server's objects.
    pub hits: u64,
    /// Bypass decisions on this server's objects.
    pub bypasses: u64,
    /// Load decisions on this server's objects.
    pub loads: u64,
}

impl ServerCosts {
    /// WAN traffic attributed to this server: `D_S + D_L` plus relay and
    /// wasted retry traffic.
    pub fn wan_cost(&self) -> Bytes {
        self.bypass_cost + self.fetch_cost + self.relay_cost + self.retried_bytes
    }

    /// The per-server conservation invariant: everything this server's
    /// objects delivered was either shipped from it or cache-served.
    pub fn conserves_delivery(&self) -> bool {
        self.delivered == self.bypass_served + self.cache_served
    }
}

/// Per-[`ServerId`] `D_S`/`D_L`/`D_C` breakdown of a replay — the
/// heterogeneous-network view that motivates BYHR over BYU.
#[derive(Clone, Debug, Default)]
pub struct PerServerObserver {
    servers: BTreeMap<ServerId, QueryWindow>,
}

impl PerServerObserver {
    /// An empty breakdown.
    pub fn new() -> Self {
        PerServerObserver::default()
    }

    /// Take the breakdown, one entry per server seen, in server-id order.
    pub fn into_costs(self) -> Vec<ServerCosts> {
        self.servers
            .into_iter()
            .map(|(server, w)| ServerCosts {
                server,
                delivered: w.delivered,
                bypass_served: w.bypass_served,
                bypass_cost: w.bypass_cost,
                fetch_cost: w.fetch_cost,
                relay_cost: w.relay_cost,
                cache_served: w.cache_served,
                retried_bytes: w.retried_bytes,
                failed_bytes: w.failed_bytes,
                hits: w.hits,
                bypasses: w.bypasses,
                loads: w.loads,
            })
            .collect()
    }
}

impl Observer for PerServerObserver {
    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.servers.entry(event.server).or_default().absorb(event);
    }
}

/// Per-tier decision/byte breakdown of a tiered replay: one
/// [`QueryWindow`] per caching tier, keyed by bottom-up tier index.
/// On a flat replay everything lands in tier 0.
#[derive(Clone, Debug, Default)]
pub struct PerTierObserver {
    tiers: BTreeMap<u32, QueryWindow>,
}

impl PerTierObserver {
    /// An empty breakdown.
    pub fn new() -> Self {
        PerTierObserver::default()
    }

    /// Take the breakdown, one `(tier, window)` per tier seen, in
    /// bottom-up tier order.
    pub fn into_windows(self) -> Vec<(u32, QueryWindow)> {
        self.tiers.into_iter().collect()
    }
}

impl Observer for PerTierObserver {
    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.tiers.entry(event.tier).or_default().absorb(event);
    }
}

/// An owned snapshot of one [`CostEvent`] — the scalar cost split
/// without the borrowed access/decision/policy views — kept by the
/// [`FlightRecorder`]'s rings and carried into [`Postmortem`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Query ordinal within the replay (the tick the event fired at).
    pub query: usize,
    /// The object served.
    pub object: ObjectId,
    /// The object's home server.
    pub server: ServerId,
    /// The caching tier the event belongs to.
    pub tier: u32,
    /// Raw result bytes delivered for the slice.
    pub delivered: Bytes,
    /// WAN cost of the bypassed slice.
    pub bypass_cost: Bytes,
    /// WAN cost of the cache load.
    pub fetch_cost: Bytes,
    /// WAN cost of relaying over this tier's inner link.
    pub relay_cost: Bytes,
    /// Raw bytes served out of the cache.
    pub cache_served: Bytes,
    /// WAN bytes wasted on failed transfer attempts.
    pub retried_bytes: Bytes,
    /// Raw result bytes the slice failed to deliver.
    pub failed_bytes: Bytes,
    /// 1 iff the decision was a hit.
    pub hits: u64,
    /// 1 iff the decision was a bypass.
    pub bypasses: u64,
    /// 1 iff the decision was a load.
    pub loads: u64,
    /// Failed transfer attempts of the slice.
    pub retries: u64,
    /// 1 iff the slice delivered nothing.
    pub failed: u64,
    /// 1 iff the slice was served stale.
    pub degraded: u64,
}

impl RecordedEvent {
    /// Snapshot one engine event.
    pub fn of(event: &CostEvent<'_>) -> RecordedEvent {
        RecordedEvent {
            query: event.query,
            object: event.object,
            server: event.server,
            tier: event.tier,
            delivered: event.delivered,
            bypass_cost: event.bypass_cost,
            fetch_cost: event.fetch_cost,
            relay_cost: event.relay_cost,
            cache_served: event.cache_served,
            retried_bytes: event.retried_bytes,
            failed_bytes: event.failed_bytes,
            hits: event.hits,
            bypasses: event.bypasses,
            loads: event.loads,
            retries: event.retries,
            failed: event.failed,
            degraded: event.degraded,
        }
    }
}

/// One annotated postmortem: the flight recorder's per-tier rings as
/// they stood when a query failed or degraded, plus the fault context
/// the replay ran under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Postmortem {
    /// The failing/degraded query's ordinal (also its tick).
    pub query: usize,
    /// Slices of that query that delivered nothing.
    pub failed_slices: u64,
    /// Slices of that query served from the stale local copy.
    pub degraded_slices: u64,
    /// The last events per tier leading up to (and including) the
    /// failure, oldest first, in bottom-up tier order.
    pub tiers: Vec<(u32, Vec<RecordedEvent>)>,
    /// Human-readable fault context: the fault model's description plus
    /// the retry/degradation configuration (lists outage windows when
    /// the model has them, so active windows can be read off against
    /// the query tick).
    pub context: String,
}

/// The fault flight recorder: a bounded ring of the last K events per
/// tier that snapshots into a [`Postmortem`] whenever a query fails or
/// degrades.
///
/// Attach it like any [`Observer`]
/// (via [`ReplaySession::flight_recorder`](crate::session::ReplaySession::flight_recorder));
/// it costs one ring push per slice and only materializes anything on a
/// failing query. The number of stored postmortems is bounded by
/// [`FlightRecorder::MAX_POSTMORTEMS`]; further failing queries only
/// count, and the overflow surfaces as an [`Observer::warnings`] entry.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    depth: usize,
    context: String,
    rings: BTreeMap<u32, VecDeque<RecordedEvent>>,
    failed_this_query: u64,
    degraded_this_query: u64,
    postmortems: Vec<Postmortem>,
    truncated: u64,
}

impl FlightRecorder {
    /// Postmortems kept before further failing queries only increment
    /// the truncation count.
    pub const MAX_POSTMORTEMS: usize = 32;

    /// A recorder keeping the last `depth` events per tier (clamped to
    /// at least 1).
    pub fn new(depth: usize) -> FlightRecorder {
        FlightRecorder {
            depth: depth.max(1),
            ..FlightRecorder::default()
        }
    }

    /// Attach the fault context string stamped into every postmortem.
    #[must_use]
    pub fn with_context(mut self, context: String) -> FlightRecorder {
        self.context = context;
        self
    }

    /// Ring depth (events kept per tier).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Postmortems recorded so far.
    pub fn postmortems(&self) -> &[Postmortem] {
        &self.postmortems
    }

    /// Failing/degraded queries beyond [`Self::MAX_POSTMORTEMS`] that
    /// were counted but not recorded.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Take the recorded postmortems.
    pub fn into_postmortems(self) -> Vec<Postmortem> {
        self.postmortems
    }
}

impl Observer for FlightRecorder {
    fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
        self.failed_this_query = 0;
        self.degraded_this_query = 0;
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        let ring = self.rings.entry(event.tier).or_default();
        if ring.len() == self.depth {
            ring.pop_front();
        }
        ring.push_back(RecordedEvent::of(event));
        self.failed_this_query += event.failed;
        self.degraded_this_query += event.degraded;
    }

    fn on_query_end(&mut self, index: usize, _query: &TraceQuery) {
        if self.failed_this_query == 0 && self.degraded_this_query == 0 {
            return;
        }
        if self.postmortems.len() >= Self::MAX_POSTMORTEMS {
            self.truncated += 1;
            return;
        }
        self.postmortems.push(Postmortem {
            query: index,
            failed_slices: self.failed_this_query,
            degraded_slices: self.degraded_this_query,
            tiers: self
                .rings
                .iter()
                .map(|(&tier, ring)| (tier, ring.iter().copied().collect()))
                .collect(),
            context: self.context.clone(),
        });
    }

    fn warnings(&mut self) -> Vec<String> {
        if self.truncated == 0 {
            return Vec::new();
        }
        vec![format!(
            "flight recorder: {} more failing/degraded queries after the first {} postmortems were counted but not recorded",
            self.truncated,
            Self::MAX_POSTMORTEMS
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{PerServerMultipliers, Uniform};
    use crate::session::ReplaySession;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_core::rate_profile::{RateProfile, RateProfileConfig};

    fn setup(servers: u32) -> (Trace, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, servers);
        let trace =
            byc_workload::generate(&cat, &byc_workload::WorkloadConfig::smoke(43, 1000)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        (trace, objects)
    }

    #[test]
    fn engine_replay_matches_simulator_replay() {
        let (trace, objects) = setup(2);
        let cap = objects.total_size().scale(0.3);

        let mut p1 = RateProfile::new(cap, RateProfileConfig::default());
        let report_via_session = ReplaySession::new(&trace, &objects)
            .policy(&mut p1)
            .run()
            .unwrap()
            .report;

        let engine = ReplayEngine::new(&objects);
        let mut p2 = RateProfile::new(cap, RateProfileConfig::default());
        let mut cost = CostObserver::new(p2.name(), &trace.name, objects.granularity().label());
        engine.replay(&trace, &mut p2, &mut [&mut cost]);
        assert_eq!(cost.into_report(), report_via_session);
    }

    #[test]
    fn per_server_totals_equal_cost_observer_totals() {
        let (trace, objects) = setup(3);
        let cap = objects.total_size().scale(0.25);
        let net = PerServerMultipliers::new(vec![1.0, 2.0, 4.0]).unwrap();
        let engine = ReplayEngine::with_network(&objects, &net);
        let mut policy = RateProfile::new(cap, RateProfileConfig::default());
        let mut cost = CostObserver::new("rp", &trace.name, "column");
        let mut per_server = PerServerObserver::new();
        engine.replay(&trace, &mut policy, &mut [&mut cost, &mut per_server]);
        let report = cost.into_report();
        let servers = per_server.into_costs();
        assert!(servers.len() > 1);
        let bypass: Bytes = servers.iter().map(|s| s.bypass_cost).sum();
        let fetch: Bytes = servers.iter().map(|s| s.fetch_cost).sum();
        let cache: Bytes = servers.iter().map(|s| s.cache_served).sum();
        let delivered: Bytes = servers.iter().map(|s| s.delivered).sum();
        assert_eq!(bypass, report.bypass_cost);
        assert_eq!(fetch, report.fetch_cost);
        assert_eq!(cache, report.cache_served);
        assert_eq!(delivered, report.sequence_cost);
        for s in &servers {
            assert!(s.conserves_delivery(), "{:?}", s.server);
        }
    }

    #[test]
    fn network_prices_fetch_but_not_yield() {
        let (_, objects) = setup(2);
        let net = PerServerMultipliers::new(vec![1.0, 3.0]).unwrap();
        let engine = ReplayEngine::with_network(&objects, &net);
        let raw = Bytes::new(1000);
        for info in objects.objects() {
            let access = engine.access_for(info.id, raw, Tick::ZERO);
            // Yield is a property of the query result, not the network;
            // only the buy price f_i carries the link multiplier.
            assert_eq!(access.yield_bytes, raw);
            assert_eq!(access.fetch_cost, net.price(info.server, info.fetch_cost));
            assert_eq!(access.size, info.size);
        }
    }

    #[test]
    fn uniform_network_is_transparent() {
        let (trace, objects) = setup(2);
        let cap = objects.total_size().scale(0.3);
        let engine_default = ReplayEngine::new(&objects);
        let engine_explicit = ReplayEngine::with_network(&objects, &Uniform);
        let mut reports = Vec::new();
        for engine in [engine_default, engine_explicit] {
            let mut p = RateProfile::new(cap, RateProfileConfig::default());
            let mut cost = CostObserver::new("rp", &trace.name, "column");
            engine.replay(&trace, &mut p, &mut [&mut cost]);
            reports.push(cost.into_report());
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0].bypass_cost, reports[0].bypass_served);
    }

    #[test]
    fn audit_catches_a_lying_policy() {
        /// Claims a Hit on every access but never caches anything.
        struct AlwaysHit;
        impl CachePolicy for AlwaysHit {
            fn name(&self) -> &'static str {
                "AlwaysHit"
            }
            fn on_access(&mut self, _: &Access) -> Decision {
                Decision::Hit
            }
            fn contains(&self, _: ObjectId) -> bool {
                false
            }
            fn used(&self) -> Bytes {
                Bytes::ZERO
            }
            fn capacity(&self) -> Bytes {
                Bytes::mib(1)
            }
            fn cached_objects(&self) -> Vec<ObjectId> {
                Vec::new()
            }
        }
        let (trace, objects) = setup(1);
        let mut liar = AlwaysHit;
        let audit = ReplaySession::new(&trace, &objects)
            .policy(&mut liar)
            .audited()
            .run()
            .unwrap()
            .audit
            .unwrap();
        assert!(!audit.is_clean());
        assert!(audit.violations[0].contains("not cached"));
    }

    #[test]
    fn query_level_path_attributes_servers() {
        let (trace, objects) = setup(2);
        let engine = ReplayEngine::new(&objects);
        let mut cost = CostObserver::new("semantic", &trace.name, "column");
        let mut per_server = PerServerObserver::new();
        for (i, q) in trace.queries.iter().take(50).enumerate() {
            let hit = i % 2 == 0;
            engine.serve_query_level(i, q, hit, &mut [&mut cost, &mut per_server]);
        }
        let report = cost.into_report();
        assert_eq!(report.queries, 50);
        assert!(report.conserves_delivery());
        assert!(report.cache_served > Bytes::ZERO);
        assert!(report.bypass_cost > Bytes::ZERO);
        let servers = per_server.into_costs();
        assert_eq!(servers.len(), 2);
        let delivered: Bytes = servers.iter().map(|s| s.delivered).sum();
        assert_eq!(delivered, report.sequence_cost);
    }

    #[test]
    fn partition_moves_access_observers_first_and_is_stable() {
        struct Tagged {
            tag: u32,
            wants: bool,
            accesses: u64,
        }
        impl Observer for Tagged {
            fn on_access(&mut self, _event: &CostEvent<'_>) {
                self.accesses += 1;
            }
            fn wants_accesses(&self) -> bool {
                self.wants
            }
        }
        let mut a = Tagged {
            tag: 1,
            wants: false,
            accesses: 0,
        };
        let mut b = Tagged {
            tag: 2,
            wants: true,
            accesses: 0,
        };
        let mut c = Tagged {
            tag: 3,
            wants: false,
            accesses: 0,
        };
        let mut d = Tagged {
            tag: 4,
            wants: true,
            accesses: 0,
        };
        {
            let mut obs: Vec<&mut dyn Observer> = vec![&mut a, &mut b, &mut c, &mut d];
            let split = partition_access_observers(&mut obs);
            assert_eq!(split, 2);
            // Idempotent: a second partition changes nothing.
            assert_eq!(partition_access_observers(&mut obs), 2);
        }
        // Replay only feeds accesses to the wanting prefix.
        let (trace, objects) = setup(1);
        let cap = objects.total_size().scale(0.3);
        let mut policy = RateProfile::new(cap, RateProfileConfig::default());
        let engine = ReplayEngine::new(&objects);
        let mut obs: Vec<&mut dyn Observer> = vec![&mut a, &mut b, &mut c, &mut d];
        engine.replay(&trace, &mut policy, &mut obs);
        drop(obs);
        assert_eq!(a.accesses, 0);
        assert_eq!(c.accesses, 0);
        assert!(b.accesses > 0);
        assert_eq!(b.accesses, d.accesses);
        // Stability: within each group the original order held.
        assert!(a.tag < c.tag && b.tag < d.tag);
    }

    #[test]
    fn flight_recorder_snapshots_failing_queries() {
        use crate::faults::{DegradationPolicy, FaultPlan, OutageWindows, RetryPolicy};
        let (trace, objects) = setup(1);
        let outage = OutageWindows::new(vec![crate::faults::Outage {
            server: ServerId::new(0),
            from: Tick::new(100),
            until: Tick::new(160),
        }]);
        let plan = FaultPlan {
            model: &outage,
            retry: RetryPolicy::new(1, 1),
            degradation: DegradationPolicy::Fail,
        };
        let engine = ReplayEngine::new(&objects).with_faults(plan);
        let mut policy = byc_core::static_opt::NoCache;
        let mut cost = CostObserver::new("nc", &trace.name, "column");
        let mut recorder = FlightRecorder::new(4).with_context("test outage".into());
        engine.replay(&trace, &mut policy, &mut [&mut cost, &mut recorder]);
        let report = cost.into_report();
        assert!(report.failed_queries > 0);
        let seen = recorder.postmortems().len() as u64 + recorder.truncated();
        assert_eq!(seen, report.failed_queries);
        let first = &recorder.postmortems()[0];
        assert!(first.failed_slices > 0);
        assert_eq!(first.context, "test outage");
        assert!((100..160).contains(&(first.query as u64)));
        let (tier, ring) = &first.tiers[0];
        assert_eq!(*tier, 0);
        assert!(!ring.is_empty() && ring.len() <= 4);
        // Rings hold the events leading up to (and including) the
        // failure, oldest first.
        assert!(ring.windows(2).all(|w| w[0].query <= w[1].query));
        assert_eq!(ring.last().unwrap().query, first.query);
        assert!(ring.iter().any(|e| e.failed == 1));
        if report.failed_queries > FlightRecorder::MAX_POSTMORTEMS as u64 {
            assert!(!recorder.warnings().is_empty());
        }
    }

    /// A policy that answers every access with one fixed decision.
    struct Scripted(Decision);

    impl CachePolicy for Scripted {
        fn name(&self) -> &'static str {
            "Scripted"
        }
        fn on_access(&mut self, _: &Access) -> Decision {
            self.0.clone()
        }
        fn contains(&self, _: ObjectId) -> bool {
            false
        }
        fn used(&self) -> Bytes {
            Bytes::ZERO
        }
        fn capacity(&self) -> Bytes {
            Bytes::ZERO
        }
        fn cached_objects(&self) -> Vec<ObjectId> {
            Vec::new()
        }
    }

    /// A fault model with one outcome for every attempt on every link.
    struct Always(crate::faults::FetchOutcome);

    impl crate::faults::FaultModel for Always {
        fn name(&self) -> &str {
            "always"
        }
        fn outcome(&self, _: &crate::faults::FetchAttempt) -> crate::faults::FetchOutcome {
            self.0
        }
    }

    /// The nonzero fields of one event, as `t<tier> key=value ...`.
    fn describe(e: &CostEvent<'_>) -> String {
        let fields = [
            ("hit", e.hits),
            ("bypass", e.bypasses),
            ("load", e.loads),
            ("evicted", e.evictions),
            ("delivered", e.delivered.raw()),
            ("cache", e.cache_served.raw()),
            ("served", e.bypass_served.raw()),
            ("D_S", e.bypass_cost.raw()),
            ("D_L", e.fetch_cost.raw()),
            ("relay", e.relay_cost.raw()),
            ("retries", e.retries),
            ("retried", e.retried_bytes.raw()),
            ("failed", e.failed),
            ("failed_bytes", e.failed_bytes.raw()),
            ("degraded", e.degraded),
            ("f_i", e.access.map_or(0, |a| a.fetch_cost.raw())),
        ];
        let mut out = format!("t{}", e.tier);
        for (key, value) in fields.into_iter().filter(|&(_, v)| v > 0) {
            out.push_str(&format!(" {key}={value}"));
        }
        out
    }

    /// The tier walk's hop accounting, against hand-computed prices
    /// (DESIGN.md §15.2). Kernel and oracles both run the walk, so the
    /// equivalence suites cannot catch a pricing slip inside it.
    #[test]
    fn tier_walk_prices_each_hop() {
        use crate::faults::{DegradationPolicy, FetchOutcome, RetryPolicy};
        // Link l prices the 50-byte yield at YIELD[l] and the object's
        // fetch at FETCH[l]; a tier's buy price is the fetch suffix.
        const YIELD: [u64; 3] = [100, 30, 7];
        const FETCH: [u64; 3] = [1000, 300, 70];
        let load = || Decision::Load {
            evictions: vec![ObjectId::new(1), ObjectId::new(2)].into(),
        };
        let fail = Always(FetchOutcome::Failed);
        let spike = Always(FetchOutcome::Delivered {
            cost_multiplier: 2.0,
        });
        let walk = |decisions: Vec<Decision>, faults: Option<FaultPlan<'_>>| -> Vec<String> {
            let depth = decisions.len();
            let mut policies: Vec<Scripted> = decisions.into_iter().map(Scripted).collect();
            let mut tiers: Vec<&mut dyn CachePolicy> = policies
                .iter_mut()
                .map(|p| p as &mut dyn CachePolicy)
                .collect();
            let mut events = Vec::new();
            serve_slice_tiered(
                3,
                Tick::new(3),
                ObjectId::new(9),
                ServerId::new(0),
                Bytes::new(50),
                Bytes::new(500),
                &mut tiers,
                faults.as_ref(),
                |l| Bytes::new(YIELD[l]),
                |t| Bytes::new(FETCH[t..depth].iter().sum()),
                |e| events.push(describe(e)),
            );
            events
        };
        let plan = |model, attempts, degradation| FaultPlan {
            model,
            retry: RetryPolicy::new(attempts, 1),
            degradation,
        };
        use Decision::{Bypass, Hit};
        // One tier: the paper's flat rule.
        assert_eq!(
            walk(vec![Hit], None),
            ["t0 hit=1 delivered=50 cache=50 f_i=1000"]
        );
        assert_eq!(
            walk(vec![Bypass], None),
            ["t0 bypass=1 delivered=50 served=50 D_S=100 f_i=1000"]
        );
        assert_eq!(
            walk(vec![load()], None),
            ["t0 load=1 evicted=2 delivered=50 cache=50 D_L=1000 f_i=1000"]
        );
        // Three tiers: inner bypasses relay over their own link; the
        // resolving tier prices the rest of the path.
        assert_eq!(
            walk(vec![Bypass, Hit, Hit], None),
            [
                "t0 bypass=1 relay=100 f_i=1370",
                "t1 hit=1 delivered=50 cache=50 f_i=370"
            ]
        );
        assert_eq!(
            walk(vec![Bypass, load(), Hit], None),
            [
                "t0 bypass=1 relay=100 f_i=1370",
                "t1 load=1 evicted=2 delivered=50 cache=50 D_L=370 f_i=370"
            ]
        );
        assert_eq!(
            walk(vec![Bypass, Bypass, Bypass], None),
            [
                "t0 bypass=1 relay=100 f_i=1370",
                "t1 bypass=1 relay=30 f_i=370",
                "t2 bypass=1 delivered=50 served=50 D_S=7 f_i=70"
            ]
        );
        // A spike multiplies every link the transfer crosses: one link
        // for a tier-1 hit, three for an origin bypass.
        let spiked = plan(&spike, 1, DegradationPolicy::ServeStale);
        assert_eq!(
            walk(vec![Bypass, Hit, Hit], Some(spiked)),
            [
                "t0 bypass=1 relay=200 f_i=1370",
                "t1 hit=1 delivered=50 cache=50 f_i=370"
            ]
        );
        assert_eq!(
            walk(vec![Bypass, Bypass, Bypass], Some(spiked)),
            [
                "t0 bypass=1 relay=800 f_i=1370",
                "t1 bypass=1 relay=240 f_i=370",
                "t2 bypass=1 delivered=50 served=50 D_S=56 f_i=70"
            ]
        );
        // Exhausted retries: every attempt wastes the nominal path
        // (100 + 30 + 7 for the origin bypass, 100 + 370 for the tier-1
        // load), no link carries the slice, and the resolving tier
        // degrades or fails. A tier-0 hit crosses no link at all.
        let stale = plan(&fail, 2, DegradationPolicy::ServeStale);
        assert_eq!(
            walk(vec![Bypass, Bypass, Bypass], Some(stale)),
            [
                "t0 bypass=1 f_i=1370",
                "t1 bypass=1 f_i=370",
                "t2 bypass=1 delivered=50 cache=50 retries=2 retried=274 degraded=1 f_i=70"
            ]
        );
        let failing = plan(&fail, 1, DegradationPolicy::Fail);
        assert_eq!(
            walk(vec![Bypass, load(), Hit], Some(failing)),
            [
                "t0 bypass=1 f_i=1370",
                "t1 load=1 evicted=2 retries=1 retried=470 failed=1 failed_bytes=50 f_i=370"
            ]
        );
        assert_eq!(
            walk(vec![Hit, Hit], Some(failing)),
            ["t0 hit=1 delivered=50 cache=50 f_i=1300"]
        );
    }
}
