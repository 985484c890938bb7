//! Rate-Profile totals on a fixed smoke trace, pinned.
//!
//! Rate-Profile ranks victims by their rate profile at the decision tick
//! (paper Eq. 3). Per-object decay curves cross, so a rule that ranks by
//! a *stored* rate instead picks different victims once the cache is
//! thin; on this trace it does so at 2% and 5% of the catalog. The
//! figures below are the paper's rule; a change that moves any of them
//! changes which objects Rate-Profile displaces.

use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::rate_profile::{RateProfile, RateProfileConfig};
use byc_federation::ReplaySession;
use byc_workload::{generate, WorkloadConfig};

/// `(cache fraction, total WAN bytes, hits, bypasses, loads, evictions)`
/// of Rate-Profile on the EDR smoke trace (scale 1e-2, seed 42, 20,000
/// queries) at column granularity.
const PINNED: [(f64, u64, u64, u64, u64, u64); 4] = [
    (0.02, 5_167_462_642, 30_867, 61_464, 96, 62),
    (0.05, 2_358_713_288, 58_005, 34_361, 61, 9),
    (0.15, 1_594_015_894, 76_086, 16_282, 59, 0),
    (0.30, 1_594_015_894, 76_086, 16_282, 59, 0),
];

#[test]
fn rate_profile_totals_on_edr_smoke_are_pinned() {
    let catalog = sdss::build(SdssRelease::Edr, 1e-2, 2);
    let trace = generate(&catalog, &WorkloadConfig::smoke(42, 20_000)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    for (fraction, total, hits, bypasses, loads, evictions) in PINNED {
        let capacity = objects.total_size().scale(fraction);
        let mut policy = RateProfile::new(capacity, RateProfileConfig::default());
        let report = ReplaySession::new(&trace, &objects)
            .policy(&mut policy)
            .run()
            .expect("replay failed")
            .report;
        assert_eq!(
            (
                report.total_cost().raw(),
                report.hits,
                report.bypasses,
                report.loads,
                report.evictions
            ),
            (total, hits, bypasses, loads, evictions),
            "fraction {fraction}"
        );
    }
}
