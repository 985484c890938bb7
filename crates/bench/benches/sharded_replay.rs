//! Throughput of the sharded replay fan-out versus the unsharded
//! kernel.
//!
//! Configurations per policy over the same DR1-style trace:
//!
//! * `reference` — the unsharded kernel (`ReplaySession::run`,
//!   unaudited, default 4096-query chunks), the baseline every other
//!   row is normalized against.
//! * `sharded/N` — the object-sharded parallel path at N ∈ {1, 2, 4}
//!   shards: one policy instance and worker thread per object-id
//!   range, per-shard windows merged deterministically. `sharded/1`
//!   isolates the channel + worker overhead; higher shard counts only
//!   pay off with real cores (on a single-core host every shard
//!   timeshares one CPU, so the parallel rows measure overhead, not
//!   speedup — see BENCH_replay.json for the recorded numbers).
//!
//! Throughput is reported in slices/sec (criterion `Elements` = total
//! compiled slices), the unit the scaling claim is stated in.

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::shard::ShardPlan;
use byc_federation::{
    build_policy, build_sharded, ChunkCompiler, PolicyKind, ReplaySession, Uniform,
};
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_sharded_replay(c: &mut Criterion) {
    let catalog = build(SdssRelease::Dr1, 1e-2, 1);
    let trace = generate(&catalog, &WorkloadConfig::smoke(29, 10_000)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let capacity = objects.total_size().scale(0.15);

    // Count the slices once so throughput is per-slice, not per-query.
    let mut compiler = ChunkCompiler::flat(&objects, &Uniform);
    let slices: usize = trace
        .queries
        .chunks(4096)
        .map(|chunk| compiler.compile(chunk).slices().len())
        .sum();

    let mut group = c.benchmark_group("sharded_replay");
    group.throughput(Throughput::Elements(slices as u64));
    group.sample_size(10);
    for kind in [PolicyKind::Gds, PolicyKind::RateProfile] {
        group.bench_with_input(
            BenchmarkId::new("reference", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut policy = build_policy(kind, capacity, &stats.demands, 29);
                    ReplaySession::new(&trace, &objects)
                        .policy(policy.as_mut())
                        .unaudited()
                        .run()
                        .unwrap()
                        .report
                        .total_cost()
                })
            },
        );
        for shards in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new("sharded", format!("{}x{shards}", kind.label())),
                &kind,
                |b, &kind| {
                    let plan = ShardPlan::new(shards, objects.len());
                    b.iter(|| {
                        let mut sharded =
                            build_sharded(kind, plan, capacity, &stats.demands, 29).unwrap();
                        ReplaySession::new(&trace, &objects)
                            .shards(&mut sharded)
                            .unaudited()
                            .run()
                            .unwrap()
                            .report
                            .total_cost()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_replay);
criterion_main!(benches);
