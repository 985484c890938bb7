//! The uncompiled oracles the equivalence suites hold the chunked
//! replay kernel to: [`ReplayEngine::replay`] for flat networks and
//! [`replay_tiered`] for topologies. They are one per-query loop that
//! resolves and prices every query as it goes, with no compilation,
//! chunking, decode pipeline, or report-only shortcut, and walks every
//! slice through the tier walk (a flat network is one tier). A suite
//! that compares a session against them therefore checks the compiled
//! arenas, the chunk feeds and the kernel's in-place settle against the
//! one decision→cost conversion.

#![allow(dead_code)]

use byc_catalog::ObjectCatalog;
use byc_core::policy::CachePolicy;
use byc_federation::{
    replay_tiered, CostObserver, CostReport, DegradationPolicy, FaultModel, FaultPlan,
    NetworkModel, ReplayEngine, RetryPolicy, Topology,
};
use byc_workload::Trace;

/// An optional fault layer: model, retry bounds, degradation.
pub type Faults<'a> = Option<(&'a dyn FaultModel, RetryPolicy, DegradationPolicy)>;

fn plan<'a>(faults: Faults<'a>) -> Option<FaultPlan<'a>> {
    faults.map(|(model, retry, degradation)| FaultPlan {
        model,
        retry,
        degradation,
    })
}

/// The flat oracle's report of `policy` over `trace`.
pub fn flat(
    trace: &Trace,
    objects: &ObjectCatalog,
    network: &dyn NetworkModel,
    faults: Faults<'_>,
    policy: &mut dyn CachePolicy,
) -> CostReport {
    let mut engine = ReplayEngine::with_network(objects, network);
    if let Some(plan) = plan(faults) {
        engine = engine.with_faults(plan);
    }
    let mut cost = CostObserver::new(policy.name(), &trace.name, objects.granularity().label());
    engine.replay(trace, policy, &mut [&mut cost]);
    cost.into_report()
}

/// The tiered oracle's report of one policy per tier (bottom-up) over
/// `trace`.
pub fn tiered(
    trace: &Trace,
    objects: &ObjectCatalog,
    topology: &Topology,
    faults: Faults<'_>,
    tiers: &mut [&mut dyn CachePolicy],
) -> CostReport {
    let label = tiers.first().map(|p| p.name()).unwrap_or_default();
    let mut cost = CostObserver::new(label, &trace.name, objects.granularity().label());
    replay_tiered(
        trace,
        objects,
        topology,
        tiers,
        plan(faults).as_ref(),
        &mut [&mut cost],
    );
    cost.into_report()
}
