//! The replay kernel: chunked compilation, one chunk-walking loop, and
//! the decode pipeline that feeds it off a trace file.
//!
//! Every session replay — in-memory or straight off a trace file, flat
//! or tiered, fault-free or faulted, observed or not, sharded or not —
//! runs the same two steps:
//!
//! 1. **Compile a chunk.** A [`ChunkCompiler`] turns a run of queries
//!    into a [`CompiledChunk`]: a slice arena plus per-query offsets,
//!    with catalog resolution and fetch pricing memoized per
//!    table/column across chunks, so the one-time work stays one-time.
//!    On a topology each slice also carries its price over every link
//!    above the site tier. A `Feed` supplies the chunks: windows over
//!    a resident trace, the sweep's whole trace compiled once up front,
//!    or chunks pulled off a [`TraceReader`]. The reader feed decodes
//!    and compiles on a scoped thread, one chunk ahead of the kernel,
//!    and hands the chunks over in trace order.
//! 2. **Walk the chunk.** `CompiledChunk::replay` is the one loop: per
//!    query it sets the virtual clock, per slice it resolves the slice
//!    through the tier walk, and it emits into a `Sink` fixed at compile
//!    time. The report sink accumulates the
//!    [`CostReport`](crate::accounting::CostReport)'s window. The
//!    observer sink also dispatches events to `&mut dyn Observer` after
//!    partitioning out the query-boundary-only observers. One lane skips
//!    the walk: on a one-tier stack (a flat network, or a one-tier
//!    topology) with no fault layer and no observer that wants slice
//!    events, each decision settles straight into the report's window.
//!
//! A [`byc_core::ShardedPolicy`] is one policy on the one lane: it
//! routes each access to the instance owning the object, in trace
//! order, on the kernel's thread. Only the audit looks inside it, with
//! one shadow model per shard.
//!
//! Memory stays bounded by the chunk size times a small constant: the
//! reader feed holds at most three batches (a query buffer and its
//! compiled chunk) in flight, and never materializes the whole trace.

use crate::compiled::CompiledSlice;
use crate::engine::{
    partition_access_observers, serve_slice_tiered, AuditObserver, CostEvent, CostObserver,
    Observer,
};
use crate::faults::FaultPlan;
use crate::network::{NetworkModel, Pricing, Topology};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::audit::AuditReport;
use byc_core::policy::CachePolicy;
use byc_types::{Bytes, ColumnId, ObjectId, Result, ServerId, TableId, Tick};
use byc_workload::{Trace, TraceQuery, TraceReader};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};

/// Default queries per chunk: large enough to amortize per-chunk
/// dispatch and channel traffic, small enough that the reader feed's
/// buffers in flight stay a few MiB.
pub(crate) const DEFAULT_CHUNK: usize = 1024;

/// One memoized table/column resolution: computed on first sight,
/// reused for every later slice of the same reference.
#[derive(Clone, Copy)]
enum Slot {
    /// Never resolved yet.
    Unknown,
    /// The catalog could not map this reference to a cacheable object
    /// (never memoized; see `remember`).
    Unresolved,
    /// Arena-ready constants of the object; `fetch_at` indexes the
    /// compiler's priced-fetch pool (one entry per tier).
    Resolved {
        object: ObjectId,
        server: ServerId,
        size: Bytes,
        fetch_at: usize,
    },
}

/// One chunk's compiled arena: a contiguous run of queries
/// (`first_query..first_query + queries`) flattened into slices, with
/// offsets local to the chunk.
///
/// A slice's site-tier prices live in the slice itself. On a topology
/// deeper than one tier, each slice also owns a row of `upper` prices
/// per table: its yield over links `1..depth` and its origin fetch down
/// to tiers `1..depth`. A flat network and a one-tier topology compile
/// to the same table-free arena.
#[derive(Clone, Debug, Default)]
pub struct CompiledChunk {
    /// Global index of the chunk's first query.
    pub(crate) first_query: usize,
    /// The chunk's slices, in replay order.
    pub(crate) slices: Vec<CompiledSlice>,
    /// `offsets[q]..offsets[q + 1]` delimits local query `q`'s slices.
    pub(crate) offsets: Vec<usize>,
    /// Caching tiers above the site tier (the row width of the tables).
    upper: usize,
    /// Row-major `[slice][link - 1]` yield prices.
    upper_yields: Vec<Bytes>,
    /// Row-major `[slice][tier - 1]` origin-fetch suffixes.
    upper_fetches: Vec<Bytes>,
}

impl CompiledChunk {
    /// Global index of the chunk's first query.
    pub fn first_query(&self) -> usize {
        self.first_query
    }

    /// Number of queries in the chunk.
    pub fn queries(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The chunk's slice arena, in replay order.
    pub fn slices(&self) -> &[CompiledSlice] {
        &self.slices
    }

    /// Number of caching tiers the chunk was priced for (1 on a flat
    /// network).
    pub fn tiers(&self) -> usize {
        self.upper.saturating_add(1)
    }
}

/// The incremental compiler behind every replay: feed it runs of
/// queries as they arrive and get per-chunk arenas back, with catalog
/// resolution and fetch pricing memoized across chunks so the one-time
/// compilation work is actually done once.
pub struct ChunkCompiler<'a> {
    objects: &'a ObjectCatalog,
    pricing: Pricing<'a>,
    tables: Vec<Slot>,
    columns: Vec<Slot>,
    /// Priced-fetch pool the `Slot::Resolved::fetch_at` indexes point
    /// into: one entry per tier per resolved object.
    fetches: Vec<Bytes>,
    next_query: usize,
}

impl<'a> ChunkCompiler<'a> {
    /// A compiler pricing traffic over a flat per-server network.
    pub fn flat(objects: &'a ObjectCatalog, network: &'a dyn NetworkModel) -> Self {
        Self::new(objects, Pricing::Flat(network))
    }

    /// A compiler pricing traffic over a tiered topology.
    pub fn tiered(objects: &'a ObjectCatalog, topology: &'a Topology) -> Self {
        Self::new(objects, Pricing::Tiered(topology))
    }

    fn new(objects: &'a ObjectCatalog, pricing: Pricing<'a>) -> Self {
        ChunkCompiler {
            objects,
            pricing,
            tables: Vec::new(),
            columns: Vec::new(),
            fetches: Vec::new(),
            next_query: 0,
        }
    }

    /// Queries compiled so far — the global index the next chunk starts
    /// at.
    pub fn queries_compiled(&self) -> usize {
        self.next_query
    }

    /// The granularity label of the compiled object view.
    pub fn granularity(&self) -> &'static str {
        self.objects.granularity().label()
    }

    /// Compile the next run of queries into a chunk arena. References
    /// that do not resolve are skipped, matching
    /// [`crate::engine::decompose`] slice for slice.
    pub fn compile(&mut self, queries: &[TraceQuery]) -> CompiledChunk {
        let mut chunk = CompiledChunk::default();
        self.compile_into(queries, &mut chunk);
        chunk
    }

    /// [`Self::compile`] into `chunk`, overwriting it and reusing the
    /// capacity of its buffers.
    fn compile_into(&mut self, queries: &[TraceQuery], chunk: &mut CompiledChunk) {
        chunk.first_query = self.next_query;
        chunk.upper = self.pricing.depth().saturating_sub(1);
        chunk.slices.clear();
        chunk.upper_yields.clear();
        chunk.upper_fetches.clear();
        chunk.offsets.clear();
        chunk.offsets.reserve(queries.len().saturating_add(1));
        chunk.offsets.push(0);
        for query in queries {
            match self.objects.granularity() {
                Granularity::Table => {
                    for &(t, raw_yield) in &query.table_yields {
                        let slot = self.table_slot(t);
                        self.push_slice(slot, raw_yield, chunk);
                    }
                }
                Granularity::Column => {
                    for &(c, raw_yield) in &query.column_yields {
                        let slot = self.column_slot(c);
                        self.push_slice(slot, raw_yield, chunk);
                    }
                }
            }
            chunk.offsets.push(chunk.slices.len());
        }
        self.next_query = self.next_query.saturating_add(queries.len());
    }

    fn table_slot(&mut self, table: TableId) -> Slot {
        let idx = table.index();
        if let Some(&slot) = self.tables.get(idx) {
            if !matches!(slot, Slot::Unknown) {
                return slot;
            }
        }
        let Ok(object) = self.objects.object_for_table(table) else {
            return Slot::Unresolved;
        };
        let slot = self.resolve(object);
        remember(&mut self.tables, idx, slot);
        slot
    }

    fn column_slot(&mut self, column: ColumnId) -> Slot {
        let idx = column.index();
        if let Some(&slot) = self.columns.get(idx) {
            if !matches!(slot, Slot::Unknown) {
                return slot;
            }
        }
        let Ok(object) = self.objects.object_for_column(column) else {
            return Slot::Unresolved;
        };
        let slot = self.resolve(object);
        remember(&mut self.columns, idx, slot);
        slot
    }

    /// Price one object's fetch once per tier, into the pool.
    fn resolve(&mut self, object: ObjectId) -> Slot {
        let info = self.objects.info(object);
        let fetch_at = self.fetches.len();
        for tier in 0..self.pricing.depth() {
            self.fetches.push(
                self.pricing
                    .fetch_suffix(tier, info.server, info.fetch_cost),
            );
        }
        Slot::Resolved {
            object,
            server: info.server,
            size: info.size,
            fetch_at,
        }
    }

    /// Append one slice (and its upper-tier price rows) for a resolved
    /// reference. Unresolved references append nothing.
    fn push_slice(&self, slot: Slot, raw_yield: Bytes, chunk: &mut CompiledChunk) {
        let Slot::Resolved {
            object,
            server,
            size,
            fetch_at,
        } = slot
        else {
            return;
        };
        let fetch = |tier: usize| {
            fetch_at
                .checked_add(tier)
                .and_then(|at| self.fetches.get(at))
                .copied()
                .unwrap_or(Bytes::ZERO)
        };
        // Exactly `upper` entries per row (none on one tier), so a
        // slice's rows stay aligned with its arena index.
        for tier in 1..=chunk.upper {
            chunk
                .upper_yields
                .push(self.pricing.link_price(tier, server, raw_yield));
            chunk.upper_fetches.push(fetch(tier));
        }
        chunk.slices.push(CompiledSlice {
            object,
            server,
            raw_yield,
            priced_yield: self.pricing.link_price(0, server, raw_yield),
            size,
            priced_fetch: fetch(0),
        });
    }
}

/// Memoize a resolved reference. Only references the catalog resolves
/// grow the table, so its size stays bounded by the schema: an
/// out-of-catalog id from an untrusted trace costs one failed lookup
/// per occurrence, never an allocation.
fn remember(memo: &mut Vec<Slot>, idx: usize, slot: Slot) {
    if memo.len() <= idx {
        memo.resize(idx.saturating_add(1), Slot::Unknown);
    }
    if let Some(entry) = memo.get_mut(idx) {
        *entry = slot;
    }
}

/// Where the kernel emits: fixed per call site at compile time, so the
/// report-only replay carries no dynamic dispatch per slice.
trait Sink {
    /// A query is about to be served.
    fn start_query(&mut self, index: usize, query: Option<&TraceQuery>);

    /// One slice event of the tier walk.
    fn event(&mut self, event: &CostEvent<'_>);

    /// The query's last slice was served.
    fn end_query(&mut self, index: usize, query: Option<&TraceQuery>);

    /// The report to settle decisions into in place, when nothing but
    /// the report consumes slice events.
    fn report_only(&mut self) -> Option<&mut CostObserver>;
}

/// The report sink: the replay's [`CostObserver`] alone.
impl Sink for CostObserver {
    fn start_query(&mut self, _index: usize, _query: Option<&TraceQuery>) {
        CostObserver::start_query(self);
    }

    fn event(&mut self, event: &CostEvent<'_>) {
        self.absorb(event);
    }

    fn end_query(&mut self, _index: usize, _query: Option<&TraceQuery>) {
        CostObserver::end_query(self);
    }

    fn report_only(&mut self) -> Option<&mut CostObserver> {
        Some(self)
    }
}

/// The observer sink: the report first, then query hooks to every
/// observer and slice events to the access-wanting prefix only.
struct ObserverSink<'s, 'o> {
    report: &'s mut CostObserver,
    observers: &'s mut [&'o mut dyn Observer],
    /// Length of the prefix that wants per-access events.
    access: usize,
}

impl Sink for ObserverSink<'_, '_> {
    fn start_query(&mut self, index: usize, query: Option<&TraceQuery>) {
        self.report.start_query();
        if let Some(query) = query {
            for obs in self.observers.iter_mut() {
                obs.on_query_start(index, query);
            }
        }
    }

    fn event(&mut self, event: &CostEvent<'_>) {
        self.report.absorb(event);
        for obs in self.observers.iter_mut().take(self.access) {
            obs.on_access(event);
        }
    }

    fn end_query(&mut self, index: usize, query: Option<&TraceQuery>) {
        self.report.end_query();
        if let Some(query) = query {
            for obs in self.observers.iter_mut() {
                obs.on_query_end(index, query);
            }
        }
    }

    /// Observers that tick only on query boundaries see no slice event,
    /// so they leave the report-only shortcut open.
    fn report_only(&mut self) -> Option<&mut CostObserver> {
        (self.access == 0).then_some(&mut *self.report)
    }
}

impl CompiledChunk {
    /// The replay kernel: walk this chunk through a policy stack (one
    /// policy per tier, bottom-up) and emit into `sink`. `queries` are
    /// the chunk's source queries, handed to the sink's query hooks.
    fn replay<S: Sink>(
        &self,
        queries: &[TraceQuery],
        tiers: &mut [&mut dyn CachePolicy],
        faults: Option<&FaultPlan<'_>>,
        sink: &mut S,
    ) {
        let width = self.upper;
        for (local, bounds) in self.offsets.windows(2).enumerate() {
            let &[start, end] = bounds else { continue };
            let index = self.first_query.saturating_add(local);
            let time = Tick::new(index as u64);
            let query = queries.get(local);
            sink.start_query(index, query);
            for (at, slice) in (start..end).zip(self.slices.get(start..end).unwrap_or(&[])) {
                // The one specialization: a fault-free decision on a
                // one-tier stack that only the report consumes settles
                // straight into the report's window, with no event.
                if let (Some(report), [site], None) = (sink.report_only(), &mut *tiers, faults) {
                    report.settle(slice, &site.on_access(&slice.access(time)));
                    continue;
                }
                let row = at.saturating_mul(width);
                let upper_yields = self
                    .upper_yields
                    .get(row..row.saturating_add(width))
                    .unwrap_or(&[]);
                let upper_fetches = self
                    .upper_fetches
                    .get(row..row.saturating_add(width))
                    .unwrap_or(&[]);
                serve_slice_tiered(
                    index,
                    time,
                    slice.object,
                    slice.server,
                    slice.raw_yield,
                    slice.size,
                    tiers,
                    faults,
                    |link| match link.checked_sub(1) {
                        None => slice.priced_yield,
                        Some(up) => upper_yields.get(up).copied().unwrap_or(Bytes::ZERO),
                    },
                    |tier| match tier.checked_sub(1) {
                        None => slice.priced_fetch,
                        Some(up) => upper_fetches.get(up).copied().unwrap_or(Bytes::ZERO),
                    },
                    |event| sink.event(event),
                );
            }
            sink.end_query(index, query);
        }
    }
}

/// The one kernel lane: a policy stack plus the sinks it emits into.
/// Every replay drives one, on the calling thread.
pub(crate) struct Lane<'p, 'o> {
    stack: Vec<&'p mut dyn CachePolicy>,
    report: CostObserver,
    observers: Vec<&'o mut dyn Observer>,
    /// Length of the observers' access-wanting prefix.
    access: usize,
}

impl<'p, 'o> Lane<'p, 'o> {
    /// A lane over `stack`, emitting into `report` and, when any are
    /// given, `observers`.
    pub(crate) fn new(
        stack: Vec<&'p mut dyn CachePolicy>,
        report: CostObserver,
        mut observers: Vec<&'o mut dyn Observer>,
    ) -> Self {
        let access = partition_access_observers(&mut observers);
        Lane {
            stack,
            report,
            observers,
            access,
        }
    }

    /// Replay one chunk through the lane.
    pub(crate) fn replay(
        &mut self,
        chunk: &CompiledChunk,
        queries: &[TraceQuery],
        faults: Option<&FaultPlan<'_>>,
    ) {
        let stack = &mut self.stack;
        if self.observers.is_empty() {
            chunk.replay(queries, stack, faults, &mut self.report);
        } else {
            let mut sink = ObserverSink {
                report: &mut self.report,
                observers: &mut self.observers,
                access: self.access,
            };
            chunk.replay(queries, stack, faults, &mut sink);
        }
    }

    /// Release the observers, handing back the stack and the report's
    /// observer.
    pub(crate) fn into_parts(self) -> (Vec<&'p mut dyn CachePolicy>, CostObserver) {
        (self.stack, self.report)
    }
}

/// The audits of a stack: one per tier, each watching only its own
/// tier's decision stream — or, for a tier whose policy is a
/// [`byc_core::ShardedPolicy`], one per shard, each watching only the
/// objects its shard owns.
pub(crate) fn stack_audits(stack: &[&mut dyn CachePolicy]) -> Vec<AuditObserver> {
    let mut audits = Vec::with_capacity(stack.len());
    for (tier, policy) in stack.iter().enumerate() {
        let tier = u32::try_from(tier).unwrap_or(u32::MAX);
        match policy.as_sharded().map(|sharded| sharded.plan()) {
            Some(plan) => audits.extend(
                (0..plan.shards()).map(|shard| AuditObserver::for_shard(tier, plan, shard)),
            ),
            None => audits.push(AuditObserver::for_tier(tier)),
        }
    }
    audits
}

/// The one close-out protocol: each audit deep-checks against the
/// policy it watched (its tier's, or its shard's within it), and every
/// other observer finishes against the site tier's. Returns the merged
/// audit and the other observers' warnings, in order.
pub(crate) fn close_out(
    stack: &[&mut dyn CachePolicy],
    audits: Vec<AuditObserver>,
    others: &mut [&mut dyn Observer],
) -> (Option<AuditReport>, Vec<String>) {
    let audit = merge_audits(audits.into_iter().map(|mut audit| {
        let policy = stack.get(audit.tier()).map(|p| &**p as &dyn CachePolicy);
        audit.finish(policy);
        audit.into_report()
    }));
    let site: Option<&dyn CachePolicy> = stack.first().map(|p| &**p as &dyn CachePolicy);
    let mut warnings = Vec::new();
    for obs in others.iter_mut() {
        obs.finish(site);
        warnings.extend(obs.warnings());
    }
    (audit, warnings)
}

/// Merge per-tier (and per-shard) audit reports into one: counters and
/// served-byte tallies sum, violation excerpts concatenate (the exact
/// count lives in `violation_count`).
fn merge_audits(reports: impl Iterator<Item = AuditReport>) -> Option<AuditReport> {
    reports.reduce(|mut acc, r| {
        acc.accesses += r.accesses;
        acc.hits += r.hits;
        acc.bypasses += r.bypasses;
        acc.loads += r.loads;
        acc.evictions += r.evictions;
        acc.cache_served += r.cache_served;
        acc.bypass_served += r.bypass_served;
        acc.load_cost += r.load_cost;
        acc.deep_checks += r.deep_checks;
        acc.violation_count += r.violation_count;
        acc.violations.extend(r.violations);
        acc
    })
}

/// Where a replay's chunks come from.
pub(crate) enum Feed<'a> {
    /// Windows of `chunk` queries over a resident trace, compiled as
    /// the replay reaches them.
    Memory { trace: &'a Trace, chunk: usize },
    /// Chunks of `chunk` queries pulled off a trace file, decoded and
    /// compiled one chunk ahead of the kernel: the trace is never
    /// resident.
    Reader {
        reader: &'a mut TraceReader,
        chunk: usize,
    },
    /// A resident trace compiled once up front into one arena (the
    /// sweep's shared compile).
    Compiled {
        trace: &'a Trace,
        arena: &'a CompiledChunk,
    },
}

/// A compiled chunk with its source queries: what the reader feed's
/// decode thread hands the kernel, and what the kernel hands back spent
/// for the decoder to refill in place.
type Batch = (CompiledChunk, Vec<TraceQuery>);

impl Feed<'_> {
    /// The trace name for report headers.
    pub(crate) fn name(&self) -> &str {
        match self {
            Feed::Memory { trace, .. } | Feed::Compiled { trace, .. } => &trace.name,
            Feed::Reader { reader, .. } => reader.name(),
        }
    }

    /// Hand every compiled chunk, with its source queries, to `each` in
    /// trace order, on the calling thread. Returns the number of
    /// queries fed.
    ///
    /// # Errors
    ///
    /// IO and format errors from a reader feed, exactly as the reader
    /// raised them, after every chunk before the bad one was fed.
    pub(crate) fn drive(
        self,
        compiler: &mut ChunkCompiler<'_>,
        mut each: impl FnMut(&CompiledChunk, &[TraceQuery]),
    ) -> Result<usize> {
        match self {
            Feed::Compiled { trace, arena } => {
                each(arena, &trace.queries);
                Ok(arena.queries())
            }
            Feed::Memory { trace, chunk } => {
                for queries in trace.queries.chunks(chunk.max(1)) {
                    each(&compiler.compile(queries), queries);
                }
                Ok(trace.len())
            }
            Feed::Reader { reader, chunk } => std::thread::scope(|scope| {
                // One slot of backpressure: the decoder runs at most one
                // chunk ahead of the kernel. Spent batches flow back so
                // the decoder refills their buffers in place.
                let (ready, decoded) = sync_channel::<Result<Batch>>(1);
                let (spent, reuse) = channel::<Batch>();
                let decoder = scope.spawn(move || decode(reader, compiler, chunk, &ready, &reuse));
                let mut fed = 0usize;
                for batch in decoded {
                    // The decoder sends an error last, then returns.
                    let batch = batch?;
                    fed = fed.saturating_add(batch.1.len());
                    each(&batch.0, &batch.1);
                    // A decoder that already hit EOF has hung up; the
                    // batch is then simply dropped.
                    let _ = spent.send(batch);
                }
                decoder
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e));
                Ok(fed)
            }),
        }
    }
}

/// The reader feed's decode thread: refill a batch (a spent one when
/// the kernel has returned one) with the next chunk of queries and its
/// compiled arena, and send it down `ready` in trace order until end of
/// file, the first reader error, or the kernel hanging up.
fn decode(
    reader: &mut TraceReader,
    compiler: &mut ChunkCompiler<'_>,
    chunk: usize,
    ready: &SyncSender<Result<Batch>>,
    reuse: &Receiver<Batch>,
) {
    loop {
        let (mut compiled, mut queries) = reuse.try_recv().unwrap_or_default();
        if let Err(e) = reader.next_chunk_into(&mut queries, chunk) {
            let _ = ready.send(Err(e));
            return;
        }
        if queries.is_empty() {
            return;
        }
        compiler.compile_into(&queries, &mut compiled);
        if ready.send(Ok((compiled, queries))).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledTrace;
    use crate::network::{PerServerMultipliers, Uniform};
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_workload::{generate, WorkloadConfig};

    fn setup(servers: u32, queries: usize) -> (Trace, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, servers);
        let trace = generate(&cat, &WorkloadConfig::smoke(43, queries)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        (trace, objects)
    }

    #[test]
    fn chunked_compilation_matches_monolithic_arena() {
        let (trace, objects) = setup(2, 150);
        let net = PerServerMultipliers::new(vec![1.0, 3.0]).unwrap();
        let reference = CompiledTrace::compile(&trace, &objects, &net);
        for chunk_size in [1usize, 7, 64, 10_000] {
            let mut compiler = ChunkCompiler::flat(&objects, &net);
            let mut slices = Vec::new();
            let mut queries = 0usize;
            let feed = Feed::Memory {
                trace: &trace,
                chunk: chunk_size,
            };
            feed.drive(&mut compiler, |compiled, _| {
                assert_eq!(compiled.first_query(), queries);
                queries += compiled.queries();
                slices.extend_from_slice(compiled.slices());
            })
            .unwrap();
            assert_eq!(queries, trace.len(), "chunk_size {chunk_size}");
            assert_eq!(slices, reference.slices(), "chunk_size {chunk_size}");
        }
    }

    #[test]
    fn memoized_resolution_is_shared_across_chunks() {
        let (trace, objects) = setup(1, 80);
        let mut compiler = ChunkCompiler::flat(&objects, &Uniform);
        let half = trace.queries.len() / 2;
        let a = compiler.compile(&trace.queries[..half]);
        let b = compiler.compile(&trace.queries[half..]);
        assert_eq!(compiler.queries_compiled(), trace.len());
        assert_eq!(b.first_query(), half);
        // The pool holds one priced fetch per *distinct* object, not per
        // slice: memoization actually deduplicates.
        assert!(compiler.fetches.len() <= objects.len());
        assert!(a.queries() + b.queries() == trace.len());
    }

    #[test]
    fn empty_chunk_compiles_to_empty_arena() {
        let (_, objects) = setup(1, 10);
        let mut compiler = ChunkCompiler::flat(&objects, &Uniform);
        let chunk = compiler.compile(&[]);
        assert_eq!(chunk.queries(), 0);
        assert!(chunk.slices().is_empty());
    }

    #[test]
    fn memory_source_is_exhaustive_and_sticky() {
        let (trace, objects) = setup(1, 10);
        let mut sizes = Vec::new();
        for (chunk, expect) in [(3, vec![3, 3, 3, 1]), (0, vec![1; 10])] {
            let mut compiler = ChunkCompiler::flat(&objects, &Uniform);
            sizes.clear();
            // Zero-sized requests still make progress, one query a chunk.
            let fed = Feed::Memory {
                trace: &trace,
                chunk,
            }
            .drive(&mut compiler, |chunk, queries| {
                assert_eq!(chunk.queries(), queries.len());
                sizes.push(queries.len());
            })
            .unwrap();
            assert_eq!(fed, 10);
            assert_eq!(sizes, expect);
        }
    }

    #[test]
    fn one_tier_topology_compiles_like_its_flat_network() {
        let (trace, objects) = setup(2, 120);
        let topology = Topology::flat(Box::new(PerServerMultipliers::new(vec![1.0, 2.0]).unwrap()));
        let net = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
        let flat = ChunkCompiler::flat(&objects, &net).compile(&trace.queries);
        let tiered = ChunkCompiler::tiered(&objects, &topology).compile(&trace.queries);
        assert_eq!(flat.slices(), tiered.slices());
        assert_eq!(tiered.tiers(), 1);
        assert!(tiered.upper_yields.is_empty() && tiered.upper_fetches.is_empty());

        let three = Topology::three_tier(0.1, 0.25, Box::new(Uniform)).unwrap();
        let deep = ChunkCompiler::tiered(&objects, &three).compile(&trace.queries);
        assert_eq!(deep.tiers(), 3);
        assert_eq!(deep.upper_yields.len(), 2 * deep.slices().len());
        assert_eq!(deep.upper_fetches.len(), 2 * deep.slices().len());
    }
}
