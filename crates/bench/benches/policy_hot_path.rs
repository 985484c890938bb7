//! Per-policy decision-path cost: every roster policy replays the same
//! compiled DR1-style trace at 15% cache, and Rate-Profile additionally
//! at 2% and 5%, where the cache is thin and most misses that pass the
//! LAR test must rank victims (DESIGN.md §18.1).
//!
//! Every row replays through the kernel's report sink
//! (`ReplaySession::precompiled`), so the engine cost is identical and
//! the differences isolate the policy hot path.
//!
//! `BYC_PERF_SMOKE=1` trims the trace and the measurement windows for
//! the CI perf-smoke job, which replays a short workload and gates on a
//! generous wall-clock floor rather than a tight regression bound.

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::policy::CachePolicy;
use byc_federation::{build_policy, CompiledTrace, PolicyKind, ReplaySession, Uniform};
use byc_types::Bytes;
use byc_workload::Trace;

/// One replay of the shared arena into the report sink.
fn replay(
    trace: &Trace,
    objects: &ObjectCatalog,
    compiled: &CompiledTrace,
    policy: &mut dyn CachePolicy,
) -> Bytes {
    ReplaySession::new(trace, objects)
        .policy(policy)
        .precompiled(compiled)
        .unaudited()
        .run()
        .unwrap()
        .report
        .total_cost()
}
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// The full experiment roster, bypass-yield algorithms first.
const ALL_POLICIES: [PolicyKind; 13] = [
    PolicyKind::RateProfile,
    PolicyKind::OnlineBY,
    PolicyKind::OnlineBYMarking,
    PolicyKind::SpaceEffBY,
    PolicyKind::Gds,
    PolicyKind::Gdsp,
    PolicyKind::Lru,
    PolicyKind::Lfu,
    PolicyKind::LruK,
    PolicyKind::Lff,
    PolicyKind::GdStar,
    PolicyKind::Static,
    PolicyKind::NoCache,
];

fn bench_policy_hot_path(c: &mut Criterion) {
    let smoke = std::env::var_os("BYC_PERF_SMOKE").is_some();
    let queries = if smoke { 2_000 } else { 10_000 };

    // Same workload as `compiled_replay`, so the 15% rows here line up
    // with that bench's `compiled_amortized` series.
    let catalog = build(SdssRelease::Dr1, 1e-2, 1);
    let trace = generate(&catalog, &WorkloadConfig::smoke(29, queries)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let compiled = CompiledTrace::compile(&trace, &objects, &Uniform);

    let mut group = c.benchmark_group("policy_hot_path");
    group.throughput(Throughput::Elements(trace.len() as u64));
    if smoke {
        group.sample_size(3);
    }
    let mut rows: Vec<(PolicyKind, f64)> = ALL_POLICIES.iter().map(|&k| (k, 0.15)).collect();
    rows.extend([
        (PolicyKind::RateProfile, 0.02),
        (PolicyKind::RateProfile, 0.05),
    ]);
    for (kind, fraction) in rows {
        let capacity = objects.total_size().scale(fraction);
        let id = BenchmarkId::new(&format!("cache{:02.0}", fraction * 100.0), kind.label());
        group.bench_with_input(id, &kind, |b, &kind| {
            b.iter(|| {
                let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                replay(&trace, &objects, &compiled, policy.as_mut())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_policy_hot_path
}
criterion_main!(benches);
