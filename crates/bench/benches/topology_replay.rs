//! Throughput of the replay kernel as the hierarchy deepens: flat (one
//! tier — the degenerate case the proptests pin to the flat oracle) vs
//! two-tier vs three-tier.
//!
//! Two configurations per topology over the same DR1-style trace:
//!
//! * `compiled_oneshot` — `.topology(..).compiled().run()`: topology
//!   compilation paid inside the measured iteration.
//! * `compiled_amortized` — `ChunkCompiler::tiered(..).compile(..)`
//!   once outside the loop, then `.precompiled(..).run()` per
//!   iteration: the sweep's view. The flat row here is directly
//!   comparable to `compiled_replay`'s `compiled_amortized` row (same
//!   trace, same seed, same policy); the two-/three-tier rows price
//!   what a deeper hierarchy costs — per consulted tier, one extra
//!   policy call and one table lookup.
//!
//! Rate-Profile is the measured policy because it actually exercises
//! the hierarchy: in-line policies never bypass, so they pin the walk
//! at tier 0 and deeper topologies degenerate to flat.

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{build_policy, ChunkCompiler, PolicyKind, ReplaySession, Topology, Uniform};
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn topologies() -> Vec<Topology> {
    vec![
        Topology::flat(Box::new(Uniform)),
        Topology::two_tier(0.25, Box::new(Uniform)).unwrap(),
        Topology::three_tier(0.1, 0.25, Box::new(Uniform)).unwrap(),
    ]
}

fn bench_topology_replay(c: &mut Criterion) {
    // Same workload as the compiled_replay bench so the flat rows line
    // up: DR1-scale catalog, 10k-query smoke trace, column granularity.
    let catalog = build(SdssRelease::Dr1, 1e-2, 1);
    let trace = generate(&catalog, &WorkloadConfig::smoke(29, 10_000)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let kind = PolicyKind::RateProfile;

    let mut group = c.benchmark_group("topology_replay");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for topology in topologies() {
        let tier_policies = || {
            topology
                .tiers()
                .iter()
                .map(|spec| {
                    let capacity = objects.total_size().scale(0.15 * spec.capacity_scale);
                    build_policy(kind, capacity, &stats.demands, 29)
                })
                .collect::<Vec<_>>()
        };
        group.bench_function(BenchmarkId::new("compiled_oneshot", topology.name()), |b| {
            b.iter(|| {
                let mut policies = tier_policies();
                let mut session = ReplaySession::new(&trace, &objects)
                    .topology(&topology)
                    .unaudited()
                    .compiled();
                for policy in &mut policies {
                    session = session.tier_policy(policy.as_mut());
                }
                session.run().unwrap().report.total_cost()
            })
        });
        let compiled = ChunkCompiler::tiered(&objects, &topology).compile(&trace.queries);
        group.bench_function(
            BenchmarkId::new("compiled_amortized", topology.name()),
            |b| {
                b.iter(|| {
                    let mut policies = tier_policies();
                    let mut session = ReplaySession::new(&trace, &objects)
                        .topology(&topology)
                        .precompiled(&compiled)
                        .unaudited();
                    for policy in &mut policies {
                        session = session.tier_policy(policy.as_mut());
                    }
                    session.run().unwrap().report.total_cost()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_topology_replay
}
criterion_main!(benches);
