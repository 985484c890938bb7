//! Object-space sharding: split a policy's state by [`ObjectId`] range.
//!
//! The catalog hands out object ids as contiguous `u32` indexes (the same
//! property [`crate::dense::DenseMap`] exploits), so the object universe
//! partitions cleanly into contiguous id ranges. A [`ShardPlan`] fixes
//! that partition; a [`ShardedPolicy`] runs one independent policy
//! instance (with its own `CacheState`) per range and routes every access
//! to the instance owning its object.
//!
//! A `ShardedPolicy` is one policy: a replay drives it like any other,
//! in trace order on one thread. Every policy in this workspace keys its
//! state by object id and decides each access from that per-object state
//! plus the global clock (the query index), so each shard's instance
//! makes exactly the decisions it would make fed only its own
//! sub-stream — the property the replay's per-shard audit checks, one
//! shadow model per shard against that shard's own capacity (see
//! DESIGN.md §17).

use crate::access::Access;
use crate::policy::{CachePolicy, Decision};
use byc_types::{Bytes, Error, ObjectId, Result};
use std::ops::Range;

/// A fixed partition of the object-id universe `0..universe` into
/// contiguous ranges, one per shard.
///
/// Ranges differ in size by at most one id: with `universe = q·n + r`,
/// the first `r` shards hold `q + 1` ids and the rest hold `q`. Ids at
/// or beyond `universe` (possible when a trace references objects the
/// plan was not sized for) clamp to the last shard, so routing is total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    shards: u32,
    universe: u32,
}

impl ShardPlan {
    /// A plan for `shards` shards over ids `0..universe`. A zero shard
    /// count is clamped to one.
    pub fn new(shards: usize, universe: usize) -> Self {
        Self {
            shards: u32::try_from(shards.max(1)).unwrap_or(u32::MAX),
            universe: u32::try_from(universe).unwrap_or(u32::MAX),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        usize::try_from(self.shards).unwrap_or(usize::MAX)
    }

    /// Size of the id universe the plan partitions.
    pub fn universe(&self) -> usize {
        usize::try_from(self.universe).unwrap_or(usize::MAX)
    }

    /// The shard owning `object`.
    pub fn shard_of(&self, object: ObjectId) -> usize {
        let id = object.raw();
        if id >= self.universe {
            return usize::try_from(self.shards - 1).unwrap_or(usize::MAX);
        }
        let base = self.universe / self.shards;
        let rem = self.universe % self.shards;
        let boundary = rem * (base + 1);
        let shard = if id < boundary {
            id / (base + 1)
        } else {
            // `base == 0` means universe < shards, where every valid id
            // sits below `boundary`; this branch then never divides.
            match (id - boundary).checked_div(base) {
                Some(offset) => rem + offset,
                None => self.shards - 1,
            }
        };
        usize::try_from(shard.min(self.shards - 1)).unwrap_or(usize::MAX)
    }

    /// The id range shard `shard` owns (empty for out-of-range shards).
    pub fn range(&self, shard: usize) -> Range<u32> {
        let Ok(shard) = u32::try_from(shard) else {
            return 0..0;
        };
        if shard >= self.shards {
            return 0..0;
        }
        let base = self.universe / self.shards;
        let rem = self.universe % self.shards;
        let start = if shard < rem {
            shard * (base + 1)
        } else {
            rem * (base + 1) + (shard - rem) * base
        };
        let len = base + u32::from(shard < rem);
        start..start.saturating_add(len)
    }

    /// Split `capacity` evenly across the shards, handing the remainder
    /// bytes to the low shards — deterministic, and summing exactly to
    /// `capacity`.
    pub fn split_capacity(&self, capacity: Bytes) -> Vec<Bytes> {
        let n = u64::from(self.shards);
        let per = capacity.raw() / n;
        let rem = capacity.raw() % n;
        (0..n)
            .map(|i| Bytes::new(per + u64::from(i < rem)))
            .collect()
    }
}

/// One policy instance per [`ShardPlan`] range, presented as a single
/// [`CachePolicy`].
///
/// It behaves as one policy whose cache happens to be partitioned by id
/// range: each shard caches in its own share of the capacity.
pub struct ShardedPolicy {
    plan: ShardPlan,
    shards: Vec<Box<dyn CachePolicy + Send + Sync>>,
}

impl ShardedPolicy {
    /// Bundle `shards` policy instances under `plan`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the instance count disagrees with
    /// the plan's shard count.
    pub fn new(plan: ShardPlan, shards: Vec<Box<dyn CachePolicy + Send + Sync>>) -> Result<Self> {
        if shards.len() != plan.shards() {
            return Err(Error::InvalidConfig(format!(
                "shard plan expects {} policy instances, got {}",
                plan.shards(),
                shards.len()
            )));
        }
        Ok(Self { plan, shards })
    }

    /// The partition this policy routes by.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// The per-shard instances, in shard order.
    pub fn shards(&self) -> &[Box<dyn CachePolicy + Send + Sync>] {
        &self.shards
    }
}

impl CachePolicy for ShardedPolicy {
    fn name(&self) -> &'static str {
        self.shards.first().map_or("Sharded", |s| s.name())
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        let shard = self.plan.shard_of(access.object);
        match self.shards.get_mut(shard) {
            Some(policy) => policy.on_access(access),
            // Unreachable by construction (routing is total); answer the
            // cost-neutral decision rather than panic.
            None => Decision::Bypass,
        }
    }

    fn contains(&self, object: ObjectId) -> bool {
        let shard = self.plan.shard_of(object);
        self.shards.get(shard).is_some_and(|s| s.contains(object))
    }

    fn used(&self) -> Bytes {
        self.shards.iter().map(|s| s.used()).sum()
    }

    fn capacity(&self) -> Bytes {
        self.shards.iter().map(|s| s.capacity()).sum()
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.cached_objects());
        }
        all
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        let shard = self.plan.shard_of(object);
        self.shards
            .get_mut(shard)
            .is_some_and(|s| s.invalidate(object))
    }

    fn as_sharded(&self) -> Option<&ShardedPolicy> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inline::make;
    use byc_types::Tick;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn plan_partitions_exactly() {
        for (shards, universe) in [(1, 10), (3, 10), (4, 4), (7, 3), (5, 0), (16, 1000)] {
            let plan = ShardPlan::new(shards, universe);
            // Ranges tile 0..universe with no gaps or overlaps.
            let mut next = 0u32;
            for s in 0..plan.shards() {
                let r = plan.range(s);
                assert_eq!(r.start, next, "{shards}x{universe} shard {s}");
                next = r.end;
                for id in r.clone() {
                    assert_eq!(plan.shard_of(oid(id)), s, "{shards}x{universe} id {id}");
                }
            }
            assert_eq!(next as usize, universe);
            // Range sizes differ by at most one.
            let sizes: Vec<u32> = (0..plan.shards())
                .map(|s| plan.range(s).len() as u32)
                .collect();
            let (min, max) = (
                sizes.iter().copied().min().unwrap_or(0),
                sizes.iter().copied().max().unwrap_or(0),
            );
            assert!(max - min <= 1, "{sizes:?}");
        }
    }

    #[test]
    fn out_of_universe_ids_clamp_to_last_shard() {
        let plan = ShardPlan::new(4, 10);
        assert_eq!(plan.shard_of(oid(10)), 3);
        assert_eq!(plan.shard_of(oid(u32::MAX)), 3);
        assert_eq!(plan.range(4), 0..0);
        assert_eq!(plan.range(usize::MAX), 0..0);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let plan = ShardPlan::new(0, 8);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.range(0), 0..8);
    }

    #[test]
    fn split_capacity_sums_exactly() {
        let plan = ShardPlan::new(3, 30);
        let parts = plan.split_capacity(Bytes::new(100));
        assert_eq!(parts, vec![Bytes::new(34), Bytes::new(33), Bytes::new(33)]);
        let total: Bytes = parts.into_iter().sum();
        assert_eq!(total, Bytes::new(100));
    }

    #[test]
    fn sharded_policy_requires_matching_count() {
        let plan = ShardPlan::new(2, 10);
        let shards: Vec<Box<dyn CachePolicy + Send + Sync>> =
            vec![Box::new(make::lru(Bytes::new(100)))];
        assert!(ShardedPolicy::new(plan, shards).is_err());
    }

    #[test]
    fn routes_state_by_object_range() {
        let plan = ShardPlan::new(2, 10);
        let shards: Vec<Box<dyn CachePolicy + Send + Sync>> = plan
            .split_capacity(Bytes::new(200))
            .into_iter()
            .map(|cap| Box::new(make::lru(cap)) as Box<dyn CachePolicy + Send + Sync>)
            .collect();
        let mut sharded = ShardedPolicy::new(plan, shards).unwrap();
        assert_eq!(sharded.name(), "LRU");
        let access = |id: u32, t: u64| Access {
            object: oid(id),
            time: Tick::new(t),
            yield_bytes: Bytes::new(10),
            size: Bytes::new(40),
            fetch_cost: Bytes::new(40),
        };
        // One object per half of the universe; each lands in its own
        // shard's cache and the facade sees both.
        assert!(sharded.on_access(&access(1, 0)).is_load());
        assert!(sharded.on_access(&access(7, 1)).is_load());
        assert!(sharded.contains(oid(1)));
        assert!(sharded.contains(oid(7)));
        assert_eq!(sharded.used(), Bytes::new(80));
        assert_eq!(sharded.capacity(), Bytes::new(200));
        let mut cached = sharded.cached_objects();
        cached.sort_unstable();
        assert_eq!(cached, vec![oid(1), oid(7)]);
        assert!(sharded.shards()[0].contains(oid(1)));
        assert!(!sharded.shards()[0].contains(oid(7)));
        assert!(sharded.invalidate(oid(7)));
        assert!(!sharded.contains(oid(7)));
        // Seen through the trait, it still exposes its shards.
        let dynamic: &dyn CachePolicy = &sharded;
        assert_eq!(dynamic.as_sharded().map(ShardedPolicy::plan), Some(plan));
        assert!(make::lru(Bytes::new(1)).as_sharded().is_none());
    }
}
