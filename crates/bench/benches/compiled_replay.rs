//! Throughput of the compiled replay kernel versus the uncompiled
//! engine.
//!
//! Three configurations per policy over the same DR1-style trace:
//!
//! * `reference` — the uncompiled engine (`ReplayEngine::replay` into a
//!   `CostObserver`): catalog resolution and network pricing per
//!   access, per replay, with observer dispatch.
//! * `compiled_oneshot` — `ReplaySession::compiled().run()`: the whole
//!   trace is compiled inside the measured iteration, then the kernel
//!   replays it into the report sink. The break-even view for a single
//!   replay.
//! * `compiled_amortized` — `CompiledTrace::compile` once outside the
//!   loop, then `ReplaySession::precompiled(..).run()` per iteration:
//!   the sweep's view, where one compilation serves the whole
//!   (policy × fraction) grid. This is the headline number (target:
//!   ≥ 1.5× over `reference`).

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_federation::{
    build_policy, CompiledTrace, CostObserver, PolicyKind, ReplayEngine, ReplaySession, Uniform,
};
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_compiled_replay(c: &mut Criterion) {
    // DR1-scale schema (the paper's second data release), single server,
    // uniform network: the default synthetic replay workload.
    let catalog = build(SdssRelease::Dr1, 1e-2, 1);
    let trace = generate(&catalog, &WorkloadConfig::smoke(29, 10_000)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let capacity = objects.total_size().scale(0.15);
    let compiled = CompiledTrace::compile(&trace, &objects, &Uniform);

    let mut group = c.benchmark_group("compiled_replay");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for kind in [
        PolicyKind::Gds,
        PolicyKind::RateProfile,
        PolicyKind::NoCache,
    ] {
        group.bench_with_input(
            BenchmarkId::new("reference", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                    let mut cost = CostObserver::new(policy.name(), &trace.name, "column");
                    ReplayEngine::new(&objects).replay(&trace, policy.as_mut(), &mut [&mut cost]);
                    cost.into_report().total_cost()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_oneshot", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                    ReplaySession::new(&trace, &objects)
                        .policy(policy.as_mut())
                        .unaudited()
                        .compiled()
                        .run()
                        .unwrap()
                        .report
                        .total_cost()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_amortized", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                    ReplaySession::new(&trace, &objects)
                        .policy(policy.as_mut())
                        .precompiled(&compiled)
                        .unaudited()
                        .run()
                        .unwrap()
                        .report
                        .total_cost()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_compiled_replay
}
criterion_main!(benches);
