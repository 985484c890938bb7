//! Forwarding wrappers that time the calls a replay makes into two
//! layers from outside the program: [`TimedPolicy`] around each cache
//! policy (or shard) for the `core` layer, and [`TimedObserver`] around
//! each observer for the `telemetry` layer.
//!
//! Both forward every trait method unchanged, so a wrapped replay
//! produces the same report and the same event stream as an unwrapped
//! one; only the clock reads are added.

use byc_core::{Access, CachePolicy, Decision};
use byc_federation::{CostEvent, Observer};
use byc_types::{Bytes, ObjectId};
use byc_workload::TraceQuery;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one policy instance did during a replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DecideStats {
    /// Wall time spent inside `on_access`.
    pub decide: Duration,
    /// `on_access` calls.
    pub decisions: u64,
    /// Decisions answered `Hit`.
    pub hits: u64,
    /// Decisions answered `Bypass`.
    pub bypasses: u64,
    /// Decisions answered `Load`.
    pub loads: u64,
    /// Objects evicted (by loads and invalidations).
    pub evictions: u64,
    /// Loads whose object was hit at least once before it left the
    /// cache (or before the replay ended).
    pub useful_loads: u64,
}

impl DecideStats {
    /// Element-wise sum.
    pub fn add(&mut self, other: &DecideStats) {
        self.decide += other.decide;
        self.decisions += other.decisions;
        self.hits += other.hits;
        self.bypasses += other.bypasses;
        self.loads += other.loads;
        self.evictions += other.evictions;
        self.useful_loads += other.useful_loads;
    }
}

/// Where a [`TimedPolicy`] leaves its [`DecideStats`] when it is
/// dropped. Sharded replays own their policies inside a
/// `ShardedPolicy`, so the stats cannot be read back through the
/// wrapper; the slot outlives it instead.
pub type StatsSlot = Arc<Mutex<DecideStats>>;

/// Residency of one object as seen through the decision stream.
#[derive(Clone, Copy, PartialEq)]
enum Residency {
    Absent,
    Loaded,
    LoadedAndHit,
}

/// A [`CachePolicy`] that forwards to `inner` and times `on_access`.
pub struct TimedPolicy {
    inner: Box<dyn CachePolicy + Send + Sync>,
    stats: DecideStats,
    residency: Vec<Residency>,
    slot: StatsSlot,
}

impl TimedPolicy {
    /// Wrap `inner`; its stats land in `slot` when the wrapper drops.
    pub fn new(inner: Box<dyn CachePolicy + Send + Sync>, slot: StatsSlot) -> Self {
        TimedPolicy {
            inner,
            stats: DecideStats::default(),
            residency: Vec::new(),
            slot,
        }
    }

    fn residency_mut(&mut self, object: ObjectId) -> &mut Residency {
        let at = object.0 as usize;
        if at >= self.residency.len() {
            self.residency.resize(at + 1, Residency::Absent);
        }
        &mut self.residency[at]
    }

    /// Account for `object` leaving the cache.
    fn leave(&mut self, object: ObjectId) {
        let state = self.residency_mut(object);
        let was = *state;
        *state = Residency::Absent;
        if was == Residency::LoadedAndHit {
            self.stats.useful_loads += 1;
        }
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        // Objects still cached at the end count as useful iff they were hit.
        let resident_useful = self
            .residency
            .iter()
            .filter(|r| **r == Residency::LoadedAndHit)
            .count() as u64;
        let mut stats = self.stats;
        stats.useful_loads += resident_useful;
        // A poisoned slot only loses a statistic; never panic in drop.
        if let Ok(mut slot) = self.slot.lock() {
            *slot = stats;
        }
    }
}

impl CachePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        let start = Instant::now();
        let decision = self.inner.on_access(access);
        self.stats.decide += start.elapsed();
        self.stats.decisions += 1;
        match &decision {
            Decision::Hit => {
                self.stats.hits += 1;
                let state = self.residency_mut(access.object);
                if *state == Residency::Loaded {
                    *state = Residency::LoadedAndHit;
                }
            }
            Decision::Bypass => self.stats.bypasses += 1,
            Decision::Load { evictions } => {
                self.stats.loads += 1;
                self.stats.evictions += evictions.len() as u64;
                for &victim in evictions.iter() {
                    self.leave(victim);
                }
                *self.residency_mut(access.object) = Residency::Loaded;
            }
        }
        decision
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.inner.contains(object)
    }

    fn used(&self) -> Bytes {
        self.inner.used()
    }

    fn capacity(&self) -> Bytes {
        self.inner.capacity()
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        self.inner.cached_objects()
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        let dropped = self.inner.invalidate(object);
        if dropped {
            self.stats.evictions += 1;
            self.leave(object);
        }
        dropped
    }

    fn debug_reference_planning(&mut self, enabled: bool) {
        self.inner.debug_reference_planning(enabled);
    }
}

/// The wall time an empty timed region reads: the bias one
/// `Instant::now()` .. `elapsed()` pair adds to every timed call. The
/// wrappers subtract it once per call, so a layer's time does not grow
/// with the number of calls the clock itself costs.
pub fn empty_span() -> Duration {
    const CALLS: u32 = 100_000;
    let mut batches: Vec<Duration> = (0..5)
        .map(|_| {
            let mut total = Duration::ZERO;
            for _ in 0..CALLS {
                let at = Instant::now();
                total += std::hint::black_box(at).elapsed();
            }
            total / CALLS
        })
        .collect();
    batches.sort();
    batches[batches.len() / 2]
}

/// An [`Observer`] that forwards to `inner` and times every hook.
pub struct TimedObserver<'a> {
    inner: &'a mut dyn Observer,
    busy: Duration,
    calls: u64,
}

impl<'a> TimedObserver<'a> {
    /// Wrap `inner`; the caller keeps ownership of the observer.
    pub fn new(inner: &'a mut dyn Observer) -> Self {
        TimedObserver {
            inner,
            busy: Duration::ZERO,
            calls: 0,
        }
    }

    /// Wall time read inside the wrapped observer's hooks.
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Timed hook calls.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    fn timed(&mut self, hook: impl FnOnce(&mut dyn Observer)) {
        let start = Instant::now();
        hook(&mut *self.inner);
        self.busy += start.elapsed();
        self.calls += 1;
    }
}

impl Observer for TimedObserver<'_> {
    fn on_query_start(&mut self, index: usize, query: &TraceQuery) {
        self.timed(|o| o.on_query_start(index, query));
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.timed(|o| o.on_access(event));
    }

    fn on_query_end(&mut self, index: usize, query: &TraceQuery) {
        self.timed(|o| o.on_query_end(index, query));
    }

    fn finish(&mut self, policy: Option<&dyn CachePolicy>) {
        self.timed(|o| o.finish(policy));
    }

    fn wants_accesses(&self) -> bool {
        self.inner.wants_accesses()
    }

    fn warnings(&mut self) -> Vec<String> {
        self.inner.warnings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_types::Tick;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A policy that records which trait methods were called.
    struct Recorder {
        calls: Arc<Mutex<Vec<&'static str>>>,
    }

    impl Recorder {
        fn note(&self, call: &'static str) {
            self.calls.lock().expect("recorder lock").push(call);
        }
    }

    impl CachePolicy for Recorder {
        fn name(&self) -> &'static str {
            self.note("name");
            "Recorder"
        }
        fn on_access(&mut self, access: &Access) -> Decision {
            self.note("on_access");
            if access.object.0 == 0 {
                Decision::Load {
                    evictions: vec![ObjectId(7)].into(),
                }
            } else {
                Decision::Hit
            }
        }
        fn contains(&self, _object: ObjectId) -> bool {
            self.note("contains");
            true
        }
        fn used(&self) -> Bytes {
            self.note("used");
            Bytes::new(3)
        }
        fn capacity(&self) -> Bytes {
            self.note("capacity");
            Bytes::new(5)
        }
        fn cached_objects(&self) -> Vec<ObjectId> {
            self.note("cached_objects");
            vec![ObjectId(0)]
        }
        fn invalidate(&mut self, _object: ObjectId) -> bool {
            self.note("invalidate");
            true
        }
        fn debug_reference_planning(&mut self, _enabled: bool) {
            self.note("debug_reference_planning");
        }
    }

    fn access(object: u32) -> Access {
        Access {
            object: ObjectId(object),
            time: Tick::new(1),
            yield_bytes: Bytes::new(1),
            size: Bytes::new(2),
            fetch_cost: Bytes::new(2),
        }
    }

    #[test]
    fn timed_policy_forwards_every_method() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let slot = StatsSlot::default();
        let mut timed = TimedPolicy::new(
            Box::new(Recorder {
                calls: calls.clone(),
            }),
            slot.clone(),
        );
        assert_eq!(timed.name(), "Recorder");
        assert_eq!(
            timed.on_access(&access(0)),
            Decision::Load {
                evictions: vec![ObjectId(7)].into()
            }
        );
        assert_eq!(timed.on_access(&access(1)), Decision::Hit);
        assert!(timed.contains(ObjectId(0)));
        assert_eq!(timed.used(), Bytes::new(3));
        assert_eq!(timed.capacity(), Bytes::new(5));
        assert_eq!(timed.cached_objects(), vec![ObjectId(0)]);
        assert!(timed.invalidate(ObjectId(0)));
        timed.debug_reference_planning(true);
        drop(timed);
        assert_eq!(
            *calls.lock().expect("recorder lock"),
            vec![
                "name",
                "on_access",
                "on_access",
                "contains",
                "used",
                "capacity",
                "cached_objects",
                "invalidate",
                "debug_reference_planning",
            ]
        );
        let stats = *slot.lock().expect("slot lock");
        assert_eq!(stats.decisions, 2);
        assert_eq!((stats.hits, stats.bypasses, stats.loads), (1, 0, 1));
        // One victim of the load plus the invalidated object.
        assert_eq!(stats.evictions, 2);
        // Object 0 was never hit before it was invalidated.
        assert_eq!(stats.useful_loads, 0);
    }

    #[test]
    fn useful_loads_count_loads_hit_before_leaving() {
        let slot = StatsSlot::default();
        let mut timed = TimedPolicy::new(Box::new(HitAfterLoad { loaded: false }), slot.clone());
        // Load object 4, then hit it: the load was useful even though the
        // object is still cached when the replay ends.
        timed.on_access(&access(4));
        timed.on_access(&access(4));
        drop(timed);
        let stats = *slot.lock().expect("slot lock");
        assert_eq!((stats.loads, stats.hits, stats.useful_loads), (1, 1, 1));
    }

    /// Loads the first access, hits every later one.
    struct HitAfterLoad {
        loaded: bool,
    }

    impl CachePolicy for HitAfterLoad {
        fn name(&self) -> &'static str {
            "HitAfterLoad"
        }
        fn on_access(&mut self, _access: &Access) -> Decision {
            if std::mem::replace(&mut self.loaded, true) {
                Decision::Hit
            } else {
                Decision::load()
            }
        }
        fn contains(&self, _object: ObjectId) -> bool {
            self.loaded
        }
        fn used(&self) -> Bytes {
            Bytes::ZERO
        }
        fn capacity(&self) -> Bytes {
            Bytes::ZERO
        }
        fn cached_objects(&self) -> Vec<ObjectId> {
            Vec::new()
        }
    }

    /// An observer that records which hooks were called.
    struct HookLog {
        calls: Rc<RefCell<Vec<&'static str>>>,
    }

    impl Observer for HookLog {
        fn on_query_start(&mut self, _index: usize, _query: &TraceQuery) {
            self.calls.borrow_mut().push("on_query_start");
        }
        fn on_access(&mut self, _event: &CostEvent<'_>) {
            self.calls.borrow_mut().push("on_access");
        }
        fn on_query_end(&mut self, _index: usize, _query: &TraceQuery) {
            self.calls.borrow_mut().push("on_query_end");
        }
        fn finish(&mut self, _policy: Option<&dyn CachePolicy>) {
            self.calls.borrow_mut().push("finish");
        }
        fn wants_accesses(&self) -> bool {
            self.calls.borrow_mut().push("wants_accesses");
            false
        }
        fn warnings(&mut self) -> Vec<String> {
            self.calls.borrow_mut().push("warnings");
            vec!["w".into()]
        }
    }

    #[test]
    fn timed_observer_forwards_every_hook() {
        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut log = HookLog {
            calls: calls.clone(),
        };
        let query = TraceQuery {
            id: byc_types::QueryId::new(0),
            sql: String::new(),
            template: 0,
            data_keys: Vec::new(),
            tables: Vec::new(),
            columns: Vec::new(),
            total_yield: Bytes::ZERO,
            table_yields: Vec::new(),
            column_yields: Vec::new(),
        };
        let mut timed = TimedObserver::new(&mut log);
        timed.on_query_start(0, &query);
        timed.on_query_end(0, &query);
        timed.finish(None);
        assert!(!timed.wants_accesses());
        assert_eq!(timed.warnings(), vec!["w".to_string()]);
        assert_eq!(timed.calls(), 3);
        assert_eq!(
            *calls.borrow(),
            vec![
                "on_query_start",
                "on_query_end",
                "finish",
                "wants_accesses",
                "warnings"
            ]
        );
    }

    #[test]
    fn empty_span_is_small_and_positive() {
        let span = empty_span();
        assert!(span < Duration::from_micros(10), "{span:?}");
    }
}
