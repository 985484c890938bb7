//! Compiled traces: the arena the replay kernel walks.
//!
//! Per-access work that is invariant across replays of the same
//! `(trace, objects, network)` triple — catalog resolution
//! (`object_for_table` / `object_for_column`), the `ObjectInfo` lookup,
//! and network pricing of fetch and bypass costs — is hoisted into a
//! compilation pass. Every query becomes a run of [`CompiledSlice`]
//! records (object, home server, raw yield, both network-priced costs)
//! in one contiguous arena, delimited by a per-query offset table.
//!
//! The arena type is [`CompiledChunk`]: a [`ChunkCompiler`] emits one
//! per run of queries as a replay streams. A [`CompiledTrace`] is the same arena
//! holding a whole trace, compiled in one pass; sweeps build one and
//! share it across their whole (policy × fraction) grid.

use crate::network::NetworkModel;
use crate::stream::{ChunkCompiler, CompiledChunk};
use byc_catalog::ObjectCatalog;
use byc_core::access::Access;
use byc_types::{Bytes, ObjectId, ServerId, Tick};
use byc_workload::Trace;

/// One pre-resolved, pre-priced object slice of one query: everything
/// the replay loop needs, with no catalog or network model in sight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompiledSlice {
    /// The cacheable object this slice resolves to.
    pub object: ObjectId,
    /// The object's home server (already looked up from the catalog).
    pub server: ServerId,
    /// Raw result bytes of the slice (yield, network-independent).
    pub raw_yield: Bytes,
    /// WAN cost of bypassing the slice over the site tier's uplink:
    /// `raw_yield` priced by the home server's link.
    pub priced_yield: Bytes,
    /// The object's total size (the policy-visible `Access::size`).
    pub size: Bytes,
    /// WAN cost of loading the object into the site tier: its fetch
    /// cost priced by the home server's link (the policy-visible
    /// `Access::fetch_cost`).
    pub priced_fetch: Bytes,
}

impl CompiledSlice {
    /// The policy-visible access of this slice at virtual time `time`.
    /// Identical to what [`crate::engine::ReplayEngine`] constructs per
    /// access — raw yield, priced fetch — but read straight from the
    /// arena.
    #[inline]
    pub fn access(&self, time: Tick) -> Access {
        Access {
            object: self.object,
            time,
            yield_bytes: self.raw_yield,
            size: self.size,
            fetch_cost: self.priced_fetch,
        }
    }
}

/// A whole trace compiled against one `(objects, network)` pair as a
/// single arena: compile once, replay many.
pub type CompiledTrace = CompiledChunk;

impl CompiledChunk {
    /// Compile all of `trace` against `objects` and `network` in one
    /// pass: resolve every table/column reference to its cacheable
    /// object and price its traffic, exactly once. References that do
    /// not resolve are skipped, matching [`crate::engine::decompose`]
    /// slice for slice.
    pub fn compile(trace: &Trace, objects: &ObjectCatalog, network: &dyn NetworkModel) -> Self {
        ChunkCompiler::flat(objects, network).compile(&trace.queries)
    }

    /// The slices of the chunk's local query `index` (empty when out of
    /// range or the query resolved to no cacheable objects).
    pub fn query_slices(&self, index: usize) -> &[CompiledSlice] {
        let bounds = index
            .checked_add(1)
            .and_then(|next| Some((*self.offsets.get(index)?, *self.offsets.get(next)?)));
        let Some((start, end)) = bounds else {
            return &[];
        };
        self.slices.get(start..end).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::decompose;
    use crate::network::{PerServerMultipliers, Uniform};
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::Granularity;
    use byc_workload::{generate, WorkloadConfig};

    fn setup(servers: u32, queries: usize) -> (Trace, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, servers);
        let trace = generate(&cat, &WorkloadConfig::smoke(43, queries)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        (trace, objects)
    }

    #[test]
    fn compilation_matches_decompose_query_by_query() {
        for granularity in [Granularity::Table, Granularity::Column] {
            let cat = build(SdssRelease::Edr, 1e-3, 2);
            let trace = generate(&cat, &WorkloadConfig::smoke(43, 400)).unwrap();
            let objects = ObjectCatalog::uniform(&cat, granularity);
            let compiled = CompiledTrace::compile(&trace, &objects, &Uniform);
            assert_eq!(compiled.queries(), trace.len());
            for (i, q) in trace.queries.iter().enumerate() {
                let reference = decompose(q, &objects);
                let arena: Vec<(ObjectId, Bytes)> = compiled
                    .query_slices(i)
                    .iter()
                    .map(|s| (s.object, s.raw_yield))
                    .collect();
                assert_eq!(arena, reference, "query {i} at {granularity:?}");
            }
        }
    }

    #[test]
    fn compiled_slices_carry_priced_costs() {
        let (trace, objects) = setup(2, 300);
        let net = PerServerMultipliers::new(vec![1.0, 3.0]).unwrap();
        let compiled = CompiledTrace::compile(&trace, &objects, &net);
        assert!(!compiled.slices().is_empty());
        for s in compiled.slices() {
            let info = objects.info(s.object);
            assert_eq!(s.server, info.server);
            assert_eq!(s.size, info.size);
            assert_eq!(s.priced_fetch, net.price(info.server, info.fetch_cost));
            assert_eq!(s.priced_yield, net.price(info.server, s.raw_yield));
        }
    }

    #[test]
    fn out_of_range_query_slices_are_empty() {
        let (trace, objects) = setup(1, 50);
        let compiled = CompiledTrace::compile(&trace, &objects, &Uniform);
        assert!(compiled.query_slices(trace.len()).is_empty());
        assert!(compiled.query_slices(usize::MAX).is_empty());
    }

    #[test]
    fn compiled_access_matches_engine_access() {
        let (trace, objects) = setup(2, 200);
        let net = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
        let engine = crate::engine::ReplayEngine::with_network(&objects, &net);
        let compiled = CompiledTrace::compile(&trace, &objects, &net);
        for (i, s) in compiled.slices().iter().take(200).enumerate() {
            let time = Tick::new(i as u64);
            assert_eq!(
                s.access(time),
                engine.access_for(s.object, s.raw_yield, time)
            );
        }
    }
}
