//! Property-based proof that chunked (out-of-core) and sharded replays
//! are bit-identical to the uncompiled oracles.
//!
//! The replay kernel's whole value proposition rests on two claims:
//!
//! 1. **Chunking is invisible.** Replaying through the incremental
//!    `ChunkCompiler` — any chunk size, in-memory source or disk
//!    reader (decoded one chunk ahead on its own thread) — produces the
//!    same [`CostReport`] as the uncompiled engine
//!    (`ReplayEngine::replay`, or `replay_tiered` on a topology), for
//!    every policy, network regime, and fault configuration.
//! 2. **`.shards(..)` is `.policy(..)`.** A `ShardedPolicy` bound with
//!    `.shards(..)` rides the same lane as any policy and produces the
//!    same report as driving that sharded policy through the uncompiled
//!    engine. (An *unsharded* policy is not the reference: splitting
//!    the capacity changes eviction behavior, deliberately — see
//!    `sharding_changes_answers_by_a_pinned_amount`.)
//!
//! These tests pin both claims across the full 13-policy roster, flat,
//! two-tier and three-tier topologies, and fault-free / flaky replays,
//! plus the reader pipeline's edges: malformed lines on either side of
//! a chunk seam, a header count that disagrees, CRLF and blank lines,
//! observers and the per-shard audit on sharded replays.

mod common;

use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::access::Access;
use byc_core::policy::{CachePolicy, Decision};
use byc_core::shard::{ShardPlan, ShardedPolicy};
use byc_federation::{
    build_policy, build_sharded, CostReport, DegradationPolicy, FaultModel, FlakyLinks,
    NetworkModel, PerServerMultipliers, PolicyKind, ReplaySession, RetryPolicy, Topology, Uniform,
};
use byc_telemetry::{read_events, EventLogWriter, TelemetryObserver};
use byc_types::{Bytes, Error, ObjectId};
use byc_workload::io::{read_trace, write_trace};
use byc_workload::{generate, Trace, TraceReader, WorkloadConfig, WorkloadStats};
use common::Faults;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Every policy the roster can build, not just the headline lineup.
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

fn smoke(seed: u64, servers: u32, queries: usize) -> (Trace, ObjectCatalog, WorkloadStats) {
    let catalog = sdss::build(SdssRelease::Edr, 1e-4, servers);
    let trace = generate(&catalog, &WorkloadConfig::smoke(seed, queries)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    (trace, objects, stats)
}

fn net_or_uniform(network: Option<&PerServerMultipliers>) -> &dyn NetworkModel {
    match network {
        Some(net) => net,
        None => &Uniform,
    }
}

/// The reference: the uncompiled flat oracle over the in-memory trace.
fn reference_flat(
    trace: &Trace,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
    kind: PolicyKind,
    seed: u64,
    network: Option<&PerServerMultipliers>,
    faults: Faults<'_>,
) -> CostReport {
    let capacity = objects.total_size().scale(0.25);
    let mut policy = build_policy(kind, capacity, &stats.demands, seed);
    common::flat(
        trace,
        objects,
        net_or_uniform(network),
        faults,
        policy.as_mut(),
    )
}

/// The streamed path: same policy construction, chunked replay.
fn streamed_flat(
    trace: &Trace,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
    kind: PolicyKind,
    seed: u64,
    network: Option<&PerServerMultipliers>,
    faults: Faults<'_>,
    chunk: usize,
) -> CostReport {
    let capacity = objects.total_size().scale(0.25);
    let mut policy = build_policy(kind, capacity, &stats.demands, seed);
    let mut session = ReplaySession::new(trace, objects)
        .policy(policy.as_mut())
        .chunk_size(chunk)
        .unaudited();
    if let Some(net) = network {
        session = session.network(net);
    }
    if let Some((model, retry, degradation)) = faults {
        session = session.faults(model).retry(retry).degrade(degradation);
    }
    session.run().unwrap().report
}

/// Reference for sharding: the same `ShardedPolicy` driven through the
/// uncompiled oracle — it routes each access to its owning shard, so
/// decisions match the session's replay exactly.
fn sharded_reference_flat(
    trace: &Trace,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
    kind: PolicyKind,
    seed: u64,
    shards: usize,
    network: Option<&PerServerMultipliers>,
    faults: Faults<'_>,
) -> CostReport {
    let capacity = objects.total_size().scale(0.25);
    let plan = ShardPlan::new(shards, objects.len());
    let mut sharded = build_sharded(kind, plan, capacity, &stats.demands, seed).unwrap();
    common::flat(
        trace,
        objects,
        net_or_uniform(network),
        faults,
        &mut sharded,
    )
}

/// The session's sharded path: the `ShardedPolicy` bound with
/// `.shards(..)`.
fn sharded_parallel_flat(
    trace: &Trace,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
    kind: PolicyKind,
    seed: u64,
    shards: usize,
    network: Option<&PerServerMultipliers>,
    faults: Faults<'_>,
    chunk: usize,
) -> CostReport {
    let capacity = objects.total_size().scale(0.25);
    let plan = ShardPlan::new(shards, objects.len());
    let mut sharded = build_sharded(kind, plan, capacity, &stats.demands, seed).unwrap();
    let mut session = ReplaySession::new(trace, objects)
        .shards(&mut sharded)
        .chunk_size(chunk)
        .unaudited();
    if let Some(net) = network {
        session = session.network(net);
    }
    if let Some((model, retry, degradation)) = faults {
        session = session.faults(model).retry(retry).degrade(degradation);
    }
    session.run().unwrap().report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Claim 1, flat: chunked replay is bit-identical to the oracle
    /// for every policy, with and without per-server pricing, across
    /// chunk sizes from one query to the whole trace.
    #[test]
    fn streamed_matches_reference_across_chunk_sizes(
        seed in any::<u64>(),
        servers in 1u32..4,
        chunk in prop_oneof![Just(1usize), Just(7usize), 2usize..64, Just(4096usize), Just(usize::MAX)],
    ) {
        let (trace, objects, stats) = smoke(seed, servers, 120);
        let network = PerServerMultipliers::new(
            (0..servers).map(|s| 1.0 + s as f64).collect(),
        ).unwrap();
        for kind in ALL_POLICIES {
            for net in [None, Some(&network)] {
                let reference = reference_flat(&trace, &objects, &stats, kind, seed, net, None);
                let streamed = streamed_flat(
                    &trace, &objects, &stats, kind, seed, net, None, chunk,
                );
                prop_assert_eq!(
                    &reference, &streamed,
                    "{:?} diverged (chunk {}, network {})", kind, chunk, net.is_some()
                );
            }
        }
    }

    /// Claim 2, flat: a sharded session replay is bit-identical to the
    /// same sharded policy through the oracle, for every policy and
    /// shard count, fault-free and under flaky links with retries.
    #[test]
    fn sharded_matches_sequential_sharded_reference(
        seed in any::<u64>(),
        shards in 1usize..5,
        chunk in 1usize..48,
        fault_seed in any::<u64>(),
        faulty in any::<bool>(),
    ) {
        let (trace, objects, stats) = smoke(seed, 3, 120);
        let network = PerServerMultipliers::new(vec![1.0, 2.5, 0.5]).unwrap();
        let flaky = FlakyLinks::new(fault_seed, 0.15, 0.1, 4.0);
        let faults: Faults<'_> = faulty.then_some((
            &flaky as &dyn FaultModel,
            RetryPolicy::new(2, 2),
            DegradationPolicy::ServeStale,
        ));
        for kind in ALL_POLICIES {
            let reference = sharded_reference_flat(
                &trace, &objects, &stats, kind, seed, shards, Some(&network), faults,
            );
            let parallel = sharded_parallel_flat(
                &trace, &objects, &stats, kind, seed, shards, Some(&network), faults, chunk,
            );
            prop_assert_eq!(
                &reference, &parallel,
                "{:?} diverged ({} shards, chunk {}, faults {})", kind, shards, chunk, faulty
            );
            prop_assert!(parallel.conserves_delivery(), "{kind:?} conservation");
        }
    }

    /// Both claims on two- and three-tier topologies, fault-free and
    /// under flaky links: chunked tiered replay matches the tiered
    /// oracle, and sharded tiers match the same per-tier sharded
    /// policies driven through the oracle.
    #[test]
    fn tiered_streaming_and_sharding_match_references(
        seed in any::<u64>(),
        shards in 1usize..4,
        chunk in 1usize..48,
        fault_seed in any::<u64>(),
        faulty in any::<bool>(),
        fail_mode in any::<bool>(),
    ) {
        let (trace, objects, stats) = smoke(seed, 2, 100);
        let origin = || Box::new(PerServerMultipliers::new(vec![1.0, 3.0]).unwrap());
        let topologies = [
            Topology::two_tier(0.25, origin()).unwrap(),
            Topology::three_tier(0.1, 0.25, origin()).unwrap(),
        ];
        let flaky = FlakyLinks::new(fault_seed, 0.15, 0.1, 4.0);
        let degradation = if fail_mode {
            DegradationPolicy::Fail
        } else {
            DegradationPolicy::ServeStale
        };
        let faults: Faults<'_> =
            faulty.then_some((&flaky as &dyn FaultModel, RetryPolicy::new(2, 2), degradation));
        for topo in &topologies {
            let capacities: Vec<_> = topo
                .tiers()
                .iter()
                .map(|spec| objects.total_size().scale(0.25 * spec.capacity_scale))
                .collect();
            for kind in ALL_POLICIES {
                let mut tiers: Vec<_> = capacities
                    .iter()
                    .map(|&cap| build_policy(kind, cap, &stats.demands, seed))
                    .collect();
                let reference = {
                    let mut stack: Vec<&mut dyn CachePolicy> = tiers
                        .iter_mut()
                        .map(|p| p.as_mut() as &mut dyn CachePolicy)
                        .collect();
                    common::tiered(&trace, &objects, topo, faults, &mut stack)
                };
                let mut tiers: Vec<_> = capacities
                    .iter()
                    .map(|&cap| build_policy(kind, cap, &stats.demands, seed))
                    .collect();
                let streamed = {
                    let mut session = ReplaySession::new(&trace, &objects)
                        .topology(topo)
                        .chunk_size(chunk)
                        .unaudited();
                    if let Some((model, retry, degradation)) = faults {
                        session = session.faults(model).retry(retry).degrade(degradation);
                    }
                    for p in tiers.iter_mut() {
                        session = session.tier_policy(p.as_mut());
                    }
                    session.run().unwrap().report
                };
                prop_assert_eq!(
                    &reference, &streamed,
                    "{:?} {} streaming diverged (chunk {}, faults {})",
                    kind, topo.name(), chunk, faulty
                );

                let plan = ShardPlan::new(shards, objects.len());
                let build_tiers = || -> Vec<_> {
                    capacities
                        .iter()
                        .map(|&cap| build_sharded(kind, plan, cap, &stats.demands, seed).unwrap())
                        .collect()
                };
                let mut seq_tiers = build_tiers();
                let seq = {
                    let mut stack: Vec<&mut dyn CachePolicy> = seq_tiers
                        .iter_mut()
                        .map(|p| p as &mut dyn CachePolicy)
                        .collect();
                    common::tiered(&trace, &objects, topo, faults, &mut stack)
                };
                let mut par_tiers = build_tiers();
                let par = {
                    let mut session = ReplaySession::new(&trace, &objects)
                        .topology(topo)
                        .chunk_size(chunk)
                        .unaudited();
                    if let Some((model, retry, degradation)) = faults {
                        session = session.faults(model).retry(retry).degrade(degradation);
                    }
                    for s in par_tiers.iter_mut() {
                        session = session.shards(s);
                    }
                    session.run().unwrap().report
                };
                prop_assert_eq!(
                    &seq, &par,
                    "{:?} {} sharding diverged ({} shards, chunk {}, faults {})",
                    kind, topo.name(), shards, chunk, faulty
                );
            }
        }
    }
}

/// A disk-backed reader replays to the same bytes as the in-memory
/// trace it round-trips — the out-of-core entry point is not a third
/// semantics.
#[test]
fn reader_replay_matches_in_memory_replay() {
    let (trace, objects, stats) = smoke(23, 2, 150);
    let mut path = std::env::temp_dir();
    path.push(format!("byc-streamed-eq-{}.jsonl", std::process::id()));
    byc_workload::io::write_trace(&trace, &path).unwrap();

    let network = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
    for kind in [
        PolicyKind::RateProfile,
        PolicyKind::Gds,
        PolicyKind::SpaceEffBY,
    ] {
        let reference = reference_flat(&trace, &objects, &stats, kind, 23, Some(&network), None);

        let capacity = objects.total_size().scale(0.25);
        let mut policy = build_policy(kind, capacity, &stats.demands, 23);
        let mut reader = TraceReader::open(&path).unwrap();
        let streamed = ReplaySession::from_reader(&mut reader, &objects)
            .policy(policy.as_mut())
            .network(&network)
            .chunk_size(13)
            .unaudited()
            .run()
            .unwrap()
            .report;
        assert_eq!(reference, streamed, "{kind:?} diverged through the reader");

        // Sharded straight off the reader, too.
        let plan = ShardPlan::new(3, objects.len());
        let mut sharded = build_sharded(kind, plan, capacity, &stats.demands, 23).unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        let parallel = ReplaySession::from_reader(&mut reader, &objects)
            .shards(&mut sharded)
            .network(&network)
            .chunk_size(13)
            .unaudited()
            .run()
            .unwrap()
            .report;
        let expected =
            sharded_reference_flat(&trace, &objects, &stats, kind, 23, 3, Some(&network), None);
        assert_eq!(
            expected, parallel,
            "{kind:?} sharded reader replay diverged"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Chunk-size edge cases: one query per chunk, one chunk swallowing the
/// whole trace (and the whole-trace compile), and the empty trace.
#[test]
fn chunk_size_edges_replay_identically() {
    let (trace, objects, stats) = smoke(31, 1, 60);
    let reference = reference_flat(
        &trace,
        &objects,
        &stats,
        PolicyKind::RateProfile,
        31,
        None,
        None,
    );
    for chunk in [1, trace.len() + 1_000, usize::MAX] {
        let streamed = streamed_flat(
            &trace,
            &objects,
            &stats,
            PolicyKind::RateProfile,
            31,
            None,
            None,
            chunk,
        );
        assert_eq!(reference, streamed, "chunk {chunk} diverged");
    }

    let empty = Trace {
        name: "empty".into(),
        seed: 0,
        queries: Vec::new(),
    };
    let empty_stats = WorkloadStats::compute(&empty, &objects);
    let report = streamed_flat(
        &empty,
        &objects,
        &empty_stats,
        PolicyKind::Gds,
        0,
        None,
        None,
        8,
    );
    assert_eq!(report.queries, 0);
    assert_eq!(report.total_cost(), Bytes::ZERO);
    assert!(report.conserves_delivery());
}

/// Sharding is not invisible against an *unsharded* policy: each shard
/// gets a fixed slice of the capacity (`ShardPlan::split_capacity`), so
/// evictions, and with them WAN cost, move. This pins the exact totals
/// on one fixed trace so a change to the split shows up here instead of
/// silently moving every sharded answer.
#[test]
fn sharding_changes_answers_by_a_pinned_amount() {
    let (trace, objects, stats) = smoke(7, 1, 400);
    let capacity = objects.total_size().scale(0.05);
    let mut policy = build_policy(PolicyKind::Gds, capacity, &stats.demands, 7);
    let unsharded = ReplaySession::new(&trace, &objects)
        .policy(policy.as_mut())
        .unaudited()
        .run()
        .unwrap()
        .report;
    let plan = ShardPlan::new(2, objects.len());
    let mut sharded = build_sharded(PolicyKind::Gds, plan, capacity, &stats.demands, 7).unwrap();
    let two = ReplaySession::new(&trace, &objects)
        .shards(&mut sharded)
        .unaudited()
        .run()
        .unwrap()
        .report;
    // Same demand either way; only the caching (and so the WAN) moves.
    assert_eq!(unsharded.sequence_cost, two.sequence_cost);
    assert_eq!(unsharded.total_cost(), Bytes::new(4_812_600));
    assert_eq!(two.total_cost(), Bytes::new(16_195_600));
    assert_ne!(unsharded.total_cost(), two.total_cost());
}

/// A trace file past one default chunk (1024 queries), so the reader
/// pipeline crosses a chunk seam, as a list of its lines (header first,
/// no line endings).
fn seam_trace() -> (Trace, ObjectCatalog, WorkloadStats, Vec<String>) {
    let (trace, objects, stats) = smoke(41, 2, 1100);
    let path = temp_path("seam-source");
    write_trace(&trace, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let lines = text.lines().map(str::to_string).collect();
    (trace, objects, stats, lines)
}

/// A temp file path no other test in this process uses.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "byc-streamed-eq-{tag}-{}-{n}.jsonl",
        std::process::id()
    ))
}

/// Write `text` to a fresh temp file named by `tag`.
fn write_file(tag: &str, text: &str) -> PathBuf {
    let path = temp_path(tag);
    std::fs::write(&path, text).unwrap();
    path
}

/// GDS at 25% straight off `path`, at the session's default chunk size.
fn replay_file(
    path: &Path,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
) -> byc_types::Result<CostReport> {
    let capacity = objects.total_size().scale(0.25);
    let mut policy = build_policy(PolicyKind::Gds, capacity, &stats.demands, 5);
    let mut reader = TraceReader::open(path)?;
    ReplaySession::from_reader(&mut reader, objects)
        .policy(policy.as_mut())
        .unaudited()
        .run()
        .map(|replay| replay.report)
}

/// A reader replay fails with exactly the error, line number included,
/// that `read_trace` raises on the same file: a malformed line on the
/// first query, on both sides of the first chunk seam (queries 1024 and
/// 1025), and on the last line, and a header count that disagrees at
/// end of file in either direction.
#[test]
fn pipeline_errors_match_read_trace() {
    let (_, objects, stats, lines) = seam_trace();
    let queries = lines.len() - 1;
    let mut cases: Vec<(String, Vec<String>, Option<usize>)> = Vec::new();
    for query in [1, 1024, 1025, queries] {
        // Query `q` (1-based) sits on line `q + 1`, below the header.
        let mut bad = lines.clone();
        bad[query] = r#"{"id":7,"sql":"#.to_string();
        cases.push((format!("query {query}"), bad, Some(query + 1)));
    }
    for promised in [queries - 1, queries + 1] {
        let mut bad = lines.clone();
        let count = format!("\"query_count\":{queries}");
        assert!(bad[0].contains(&count), "{}", bad[0]);
        bad[0] = bad[0].replace(&count, &format!("\"query_count\":{promised}"));
        cases.push((format!("header count {promised}"), bad, None));
    }
    for (case, bad, line) in cases {
        let path = write_file("bad", &(bad.join("\n") + "\n"));
        let expected = read_trace(&path).unwrap_err();
        let replayed = replay_file(&path, &objects, &stats).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(replayed, Error::TraceFormat(_)),
            "{case}: {replayed:?}"
        );
        assert_eq!(expected.to_string(), replayed.to_string(), "{case}");
        if let Some(line) = line {
            let at = format!("line {line}:");
            assert!(replayed.to_string().contains(&at), "{case}: {replayed}");
        }
    }
}

/// CRLF line endings and blank or whitespace-only lines — at the top,
/// on the chunk seam and at the end — replay bit-identically to the
/// plain file and to the resident trace.
#[test]
fn crlf_and_blank_lines_replay_identically() {
    let (trace, objects, stats, lines) = seam_trace();
    let reference = {
        let capacity = objects.total_size().scale(0.25);
        let mut policy = build_policy(PolicyKind::Gds, capacity, &stats.demands, 5);
        ReplaySession::new(&trace, &objects)
            .policy(policy.as_mut())
            .unaudited()
            .run()
            .unwrap()
            .report
    };
    let crlf = lines.join("\r\n") + "\r\n";
    let mut spaced = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        spaced.push(line.clone());
        if matches!(at, 0 | 1024 | 1025) {
            spaced.push(String::new());
            spaced.push(" \t ".to_string());
        }
    }
    let spaced = spaced.join("\n") + "\n\n  \n";
    for (case, text) in [
        ("lf", lines.join("\n") + "\n"),
        ("crlf", crlf),
        ("blank lines", spaced),
    ] {
        let path = write_file("endings", &text);
        let report = replay_file(&path, &objects, &stats);
        std::fs::remove_file(&path).ok();
        assert_eq!(reference, report.unwrap(), "{case}");
    }
}

/// Whole-stream observers ride a sharded replay: an unsampled event
/// log of a sharded three-shard replay off the reader sums to exactly
/// the replay's report.
#[test]
fn sharded_event_log_reconciles_with_the_report() {
    let (trace, objects, stats) = smoke(19, 2, 300);
    let source = temp_path("sharded-source");
    write_trace(&trace, &source).unwrap();
    let log_path = temp_path("sharded-events");
    let network = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
    let capacity = objects.total_size().scale(0.25);
    let plan = ShardPlan::new(3, objects.len());
    let mut sharded = build_sharded(PolicyKind::Gds, plan, capacity, &stats.demands, 19).unwrap();
    let writer = EventLogWriter::create(&log_path, "GDS").unwrap();
    let mut telemetry = TelemetryObserver::new("GDS").with_event_log(writer);
    let mut reader = TraceReader::open(&source).unwrap();
    let replay = ReplaySession::from_reader(&mut reader, &objects)
        .shards(&mut sharded)
        .network(&network)
        .observe(&mut telemetry)
        .unaudited()
        .run()
        .unwrap();
    let (metrics, io) = telemetry.into_parts();
    io.unwrap();
    let log = read_events(&std::fs::read_to_string(&log_path).unwrap()).unwrap();
    std::fs::remove_file(&source).ok();
    std::fs::remove_file(&log_path).ok();

    let report = &replay.report;
    let totals = log.totals();
    assert_eq!(totals.bypass_cost, report.bypass_cost, "D_S");
    assert_eq!(totals.fetch_cost, report.fetch_cost, "D_L");
    assert_eq!(totals.cache_served, report.cache_served, "D_C");
    assert_eq!(totals.delivered, report.sequence_cost, "D_A");
    assert_eq!(totals.wan_cost(), report.total_cost());
    assert_eq!(totals.hits, report.hits);
    assert_eq!(totals.bypasses, report.bypasses);
    assert_eq!(totals.loads, report.loads);
    assert_eq!(totals.evictions, report.evictions);
    assert_eq!(log.events.len() as u64, metrics.accesses);
    assert_eq!(metrics.queries, report.queries as u64);
    // Observing changed nothing: the report is the oracle's.
    let expected = sharded_reference_flat(
        &trace,
        &objects,
        &stats,
        PolicyKind::Gds,
        19,
        3,
        Some(&network),
        None,
    );
    assert_eq!(&expected, report);
}

/// A test policy that loads every miss and never evicts, whatever its
/// capacity: it overflows its capacity as soon as its loads outgrow it.
struct Hoarder {
    capacity: Bytes,
    cached: BTreeMap<ObjectId, Bytes>,
    used: Bytes,
}

impl Hoarder {
    fn new(capacity: Bytes) -> Self {
        Hoarder {
            capacity,
            cached: BTreeMap::new(),
            used: Bytes::ZERO,
        }
    }
}

impl CachePolicy for Hoarder {
    fn name(&self) -> &'static str {
        "Hoarder"
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        if self.cached.contains_key(&access.object) {
            return Decision::Hit;
        }
        self.cached.insert(access.object, access.size);
        self.used += access.size;
        Decision::load()
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.cached.contains_key(&object)
    }

    fn used(&self) -> Bytes {
        self.used
    }

    fn capacity(&self) -> Bytes {
        self.capacity
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        self.cached.keys().copied().collect()
    }
}

/// The audit of a sharded replay keeps one shadow model per shard,
/// each held to its own shard's capacity: a shard that overflows its
/// own share is reported even while the sharded policy as a whole
/// stays under its total capacity.
#[test]
fn per_shard_audit_catches_a_shard_over_its_share() {
    let (trace, objects, _) = smoke(29, 1, 200);
    let plan = ShardPlan::new(2, objects.len());
    // Shard 0 may hold one byte; shard 1 the whole database.
    let shards: Vec<Box<dyn CachePolicy + Send + Sync>> = vec![
        Box::new(Hoarder::new(Bytes::new(1))),
        Box::new(Hoarder::new(objects.total_size())),
    ];
    let mut sharded = ShardedPolicy::new(plan, shards).unwrap();
    let replay = ReplaySession::new(&trace, &objects)
        .shards(&mut sharded)
        .audited()
        .run()
        .unwrap();
    let audit = replay.audit.unwrap();
    let shard0_loads = sharded.shards()[0].cached_objects().len() as u64;
    assert!(shard0_loads > 0, "the trace never touched shard 0");
    assert!(sharded.shards()[1].used() > Bytes::ZERO);
    assert!(
        sharded.used() <= sharded.capacity(),
        "the total stays under capacity"
    );
    // Every shard-0 load overflows shard 0's one byte, and nothing else
    // is wrong: shard 1 fits, and both agree with their shadow models.
    assert_eq!(
        audit.violation_count, shard0_loads,
        "{:?}",
        audit.violations
    );
    assert!(
        audit
            .violations
            .iter()
            .all(|v| v.contains("Hoarder") && v.contains("overflows capacity 1")),
        "{:?}",
        audit.violations
    );
    assert_eq!(audit.loads, replay.report.loads);
    assert_eq!(
        audit.accesses,
        replay.report.hits + replay.report.loads + replay.report.bypasses
    );
}
