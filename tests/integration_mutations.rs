//! Never-panic contracts for the two text formats the pipeline reads
//! besides traces: NDJSON event logs and the SQL of trace templates.
//!
//! Both are untrusted input (a log or a trace file from disk), so every
//! byte-level mutant of a real artifact must come back as `Ok` or `Err`,
//! never as a panic. The mutants are every truncation of the seed text
//! plus seeded bit flips, grammar-byte insertions and replacements, and
//! deletions.

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Catalog, Granularity, ObjectCatalog};
use byc_federation::{
    build_policy, DegradationPolicy, FlakyLinks, PolicyKind, ReplaySession, RetryPolicy, Topology,
    Uniform,
};
use byc_sql::{analyze, parse};
use byc_telemetry::{read_events, EventLogWriter, EventReader, TelemetryObserver};
use byc_types::SplitMix64;
use byc_workload::{generate, WorkloadConfig, WorkloadStats};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every truncation of `seed`, then `count` single-edit mutants: a bit
/// flip, a replacement by a byte from `grammar`, an insertion of one,
/// or a deletion.
fn mutants(seed: &[u8], grammar: &[u8], rng: &mut SplitMix64, count: usize) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..seed.len()).map(|cut| seed[..cut].to_vec()).collect();
    for _ in 0..count {
        let mut m = seed.to_vec();
        let at = usize::try_from(rng.next_bounded(m.len().max(1) as u64)).unwrap();
        match rng.next_bounded(4) {
            0 if !m.is_empty() => m[at] ^= 1 << rng.next_bounded(8),
            1 if !m.is_empty() => m[at] = *rng.pick(grammar),
            2 => m.insert(at.min(m.len()), *rng.pick(grammar)),
            _ if !m.is_empty() => {
                m.remove(at);
            }
            _ => {}
        }
        out.push(m);
    }
    out
}

/// Run `check` on `input`, failing the test with the input named when
/// it panics.
fn never_panics(input: &[u8], check: impl FnOnce()) {
    let outcome = catch_unwind(AssertUnwindSafe(check));
    assert!(
        outcome.is_ok(),
        "panicked on {:?}",
        String::from_utf8_lossy(input)
    );
}

/// A real event log: a faulted two-tier replay with failing slices, so
/// the records carry tier, relay, retry and failure fields.
fn event_log() -> String {
    let cat = build(SdssRelease::Edr, 1e-3, 2);
    let trace = generate(&cat, &WorkloadConfig::smoke(17, 300)).unwrap();
    let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    let topology = Topology::two_tier(0.25, Box::new(Uniform)).unwrap();
    let mut tiers: Vec<_> = topology
        .tiers()
        .iter()
        .map(|t| {
            let capacity = objects.total_size().scale(0.15 * t.capacity_scale);
            build_policy(PolicyKind::RateProfile, capacity, &stats.demands, 17)
        })
        .collect();
    let faults = FlakyLinks::new(5, 0.3, 0.2, 3.0);
    let path = std::env::temp_dir().join(format!("byc-int-mut-{}.ndjson", std::process::id()));
    let writer = EventLogWriter::create(&path, "RateProfile").unwrap();
    let mut telemetry = TelemetryObserver::new("RateProfile").with_event_log(writer);
    let mut session = ReplaySession::new(&trace, &objects)
        .topology(&topology)
        .faults(&faults)
        .retry(RetryPolicy::new(2, 1))
        .degrade(DegradationPolicy::Fail);
    for p in tiers.iter_mut() {
        session = session.tier_policy(p.as_mut());
    }
    session.observe(&mut telemetry).run().unwrap();
    telemetry.into_parts().1.unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    text
}

/// The record keys of one NDJSON line, as a shape to dedupe lines by.
fn keys(line: &str) -> Vec<&str> {
    line.split('"')
        .collect::<Vec<_>>()
        .windows(2)
        .filter(|w| w[1].starts_with(':'))
        .map(|w| w[0])
        .collect()
}

#[test]
fn mutated_event_logs_never_panic() {
    let log = event_log();
    let mut lines = log.lines();
    let header = lines.next().unwrap();
    // One seed log per distinct record shape, plus one multi-record log
    // so that edits can cross line boundaries.
    let mut shapes: BTreeMap<Vec<&str>, &str> = BTreeMap::new();
    for line in lines.clone() {
        shapes.entry(keys(line)).or_insert(line);
    }
    assert!(
        shapes.keys().any(|k| k.contains(&"t") && k.contains(&"rc")),
        "the seed log lacks tiered records: {:?}",
        shapes.keys()
    );
    let mut seeds: Vec<String> = shapes
        .values()
        .map(|line| format!("{header}\n{line}\n"))
        .collect();
    seeds.push(format!(
        "{header}\n{}\n",
        lines.take(3).collect::<Vec<_>>().join("\n")
    ));
    let mut rng = SplitMix64::new(0xe7e7);
    let mut checked = 0usize;
    for seed in &seeds {
        assert!(read_events(seed).is_ok(), "the seed log must parse: {seed}");
        for m in mutants(
            seed.as_bytes(),
            b"{}[],:\"\\-.eE0u \n\r\x00\xff",
            &mut rng,
            6000,
        ) {
            never_panics(&m, || {
                let _ = read_events(&String::from_utf8_lossy(&m));
                if let Ok(reader) = EventReader::new(&m[..]) {
                    let _ = reader.collect::<Vec<_>>();
                }
            });
            checked += 1;
        }
    }
    assert!(checked > 20_000, "only {checked} event-log mutants");
}

/// One query of each template, as the generator writes it for `cat`.
fn template_sql(cat: &Catalog, config: WorkloadConfig) -> Vec<String> {
    let trace = generate(cat, &config).unwrap();
    let mut by_template: BTreeMap<u32, String> = BTreeMap::new();
    for q in trace.queries {
        by_template.entry(q.template).or_insert(q.sql);
    }
    by_template.into_values().collect()
}

#[test]
fn mutated_template_sql_never_panics() {
    let mut config = WorkloadConfig::dr1(23);
    config.query_count = 2000;
    let releases = [
        (
            build(SdssRelease::Edr, 1e-3, 1),
            WorkloadConfig::smoke(23, 2000),
        ),
        (build(SdssRelease::Dr1, 1e-3, 1), config),
    ];
    let grammar = b"(),.*'=<>!-+/ 0123456789eE_\"\\;\n\x00\xff";
    let splices: [&[u8]; 8] = [
        b" select ",
        b" from ",
        b" where ",
        b" and ",
        b" between ",
        b" join ",
        b" on ",
        b" top ",
    ];
    let mut rng = SplitMix64::new(0x5a1);
    let mut checked = 0usize;
    for (cat, config) in &releases {
        for sql in template_sql(cat, config.clone()) {
            let query = parse(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            analyze(cat, &query).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let mut seeds = mutants(sql.as_bytes(), grammar, &mut rng, 10_000);
            // Keyword splices stress the parser's structure, not just
            // its tokenizer.
            for _ in 0..100 {
                let mut m = sql.as_bytes().to_vec();
                let at = usize::try_from(rng.next_bounded(m.len() as u64 + 1)).unwrap();
                m.splice(at..at, rng.pick(&splices).iter().copied());
                seeds.push(m);
            }
            for m in seeds {
                never_panics(&m, || {
                    if let Ok(query) = parse(&String::from_utf8_lossy(&m)) {
                        let _ = analyze(cat, &query);
                    }
                });
                checked += 1;
            }
        }
    }
    assert!(checked > 200_000, "only {checked} SQL mutants");
}
