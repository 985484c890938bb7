//! An indexed binary min-heap keyed by `f64` utility, and a reusable
//! scratch heap for partial selection.
//!
//! The paper's prototype keeps "a binary heap of database objects in which
//! heap ordering is done based on utility value" with O(log k) insertion
//! and O(1) eviction of the minimum (§6). Cache policies additionally need
//! to *re-key* entries (GDS ages utilities, LRU refreshes recency), so
//! [`IndexedMinHeap`] supports `update_key` and `remove` by object id
//! through a position index.
//!
//! Entries are ordered by `(key ascending, then ObjectId ascending)`. With
//! a total order the pop sequence of a given entry multiset is *unique* —
//! independent of insertion order or the internal arrangement of the
//! array — so eviction plans are bit-reproducible even after speculative
//! pops are rolled back (DESIGN.md §18).

use byc_types::{ObjectId, Tick};

/// `a` orders strictly before `b` under the heap's `(key, id)` total
/// order: ascending key, ties broken by ascending id. `total_cmp` keeps
/// the comparison total without a NaN escape hatch (upstream
/// `debug_assert`s exclude NaN keys, and [`canon_f64`] folds `-0.0`
/// into `+0.0` on every insert/update so the one other value where
/// `total_cmp` and `partial_cmp` disagree never reaches a comparison).
pub(crate) fn before(a: (ObjectId, f64), b: (ObjectId, f64)) -> bool {
    match a.1.total_cmp(&b.1) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.0 < b.0,
    }
}

/// Canonicalize a heap key: `-0.0` becomes `+0.0` (the comparison `==`
/// treats them as equal, so the branch catches exactly the negative
/// zero). Applied at every insertion and update in both heap types so
/// `IndexedMinHeap`'s `total_cmp` order and `SelectionHeap`'s
/// `partial_cmp`-based order agree on every stored key.
fn canon_f64(key: f64) -> f64 {
    if key == 0.0 {
        0.0
    } else {
        key
    }
}

/// Indexed binary min-heap over (object, utility) pairs under the
/// `(key, id)` total order.
///
/// Utilities must not be NaN; `debug_assert`s guard this.
#[derive(Clone, Debug, Default)]
pub struct IndexedMinHeap {
    /// Heap-ordered (object, key) pairs.
    items: Vec<(ObjectId, f64)>,
    /// object index → position in `items`, or `usize::MAX` when absent.
    positions: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl IndexedMinHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True iff `object` is present.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.positions
            .get(object.index())
            .is_some_and(|&p| p != ABSENT)
    }

    /// Current key of `object`, if present.
    pub fn key_of(&self, object: ObjectId) -> Option<f64> {
        let &pos = self.positions.get(object.index())?;
        (pos != ABSENT).then(|| self.items[pos].1)
    }

    /// The minimum entry without removing it.
    pub fn peek_min(&self) -> Option<(ObjectId, f64)> {
        self.items.first().copied()
    }

    /// Insert `object` with `key`.
    ///
    /// # Panics
    ///
    /// Panics if the object is already present (policies track membership).
    pub fn push(&mut self, object: ObjectId, key: f64) {
        debug_assert!(!key.is_nan(), "heap keys must not be NaN");
        let key = canon_f64(key);
        assert!(!self.contains(object), "duplicate heap insert for {object}");
        if self.positions.len() <= object.index() {
            self.positions.resize(object.index() + 1, ABSENT);
        }
        let pos = self.items.len();
        self.items.push((object, key));
        self.positions[object.index()] = pos;
        self.sift_up(pos);
    }

    /// Remove and return the minimum entry.
    pub fn pop_min(&mut self) -> Option<(ObjectId, f64)> {
        if self.items.is_empty() {
            return None;
        }
        let min = self.items[0];
        self.remove_at(0);
        Some(min)
    }

    /// The minimum entry found by a linear scan instead of reading the
    /// root — a structural cross-check for tests: on a valid heap it must
    /// agree with [`Self::peek_min`] because the `(key, id)` order is
    /// total.
    #[cfg(test)]
    pub(crate) fn scan_min(&self) -> Option<(ObjectId, f64)> {
        self.items
            .iter()
            .copied()
            .reduce(|best, item| if before(item, best) { item } else { best })
    }

    /// Remove `object`, returning its key if it was present.
    pub fn remove(&mut self, object: ObjectId) -> Option<f64> {
        let &pos = self.positions.get(object.index())?;
        if pos == ABSENT {
            return None;
        }
        let key = self.items[pos].1;
        self.remove_at(pos);
        Some(key)
    }

    /// Change the key of `object` to `key`; inserts if absent.
    pub fn update_key(&mut self, object: ObjectId, key: f64) {
        debug_assert!(!key.is_nan(), "heap keys must not be NaN");
        let key = canon_f64(key);
        match self.positions.get(object.index()).copied() {
            Some(pos) if pos != ABSENT => {
                let old = self.items[pos].1;
                self.items[pos].1 = key;
                // The id component of the order is unchanged, so an equal
                // key means an unchanged position.
                if key < old {
                    self.sift_up(pos);
                } else if key > old {
                    self.sift_down(pos);
                }
            }
            _ => self.push(object, key),
        }
    }

    /// Iterate entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, f64)> + '_ {
        self.items.iter().copied()
    }

    /// Drain all entries, unordered.
    pub fn clear(&mut self) {
        for &(o, _) in &self.items {
            self.positions[o.index()] = ABSENT;
        }
        self.items.clear();
    }

    fn remove_at(&mut self, pos: usize) {
        let last = self.items.len() - 1;
        let (removed, _) = self.items[pos];
        self.items.swap(pos, last);
        self.items.pop();
        self.positions[removed.index()] = ABSENT;
        if pos < self.items.len() {
            self.positions[self.items[pos].0.index()] = pos;
            // The swapped-in element may need to move either way.
            self.sift_up(pos);
            self.sift_down(pos);
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if before(self.items[pos], self.items[parent]) {
                self.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            let right = 2 * pos + 2;
            let mut smallest = pos;
            if left < self.items.len() && before(self.items[left], self.items[smallest]) {
                smallest = left;
            }
            if right < self.items.len() && before(self.items[right], self.items[smallest]) {
                smallest = right;
            }
            if smallest == pos {
                break;
            }
            self.swap(pos, smallest);
            pos = smallest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.items.swap(a, b);
        self.positions[self.items[a].0.index()] = a;
        self.positions[self.items[b].0.index()] = b;
    }

    /// Check the heap invariant and index consistency (test helper).
    #[doc(hidden)]
    pub fn validate(&self) -> bool {
        for (pos, &(o, _)) in self.items.iter().enumerate() {
            if self.positions[o.index()] != pos {
                return false;
            }
            if pos > 0 {
                let parent = (pos - 1) / 2;
                if before(self.items[pos], self.items[parent]) {
                    return false;
                }
            }
        }
        true
    }
}

/// A key type a [`SelectionHeap`] can order by.
///
/// `key_lt` must be a strict weak ordering; incomparable values (NaN for
/// `f64`) compare as equal, and the heap breaks all such ties by
/// ascending [`ObjectId`].
pub trait HeapKey: Copy {
    /// Strictly-less comparison between keys.
    fn key_lt(&self, other: &Self) -> bool;

    /// Canonical form stored in the heap; identity for most key types.
    fn canon(self) -> Self {
        self
    }
}

impl HeapKey for f64 {
    fn key_lt(&self, other: &Self) -> bool {
        matches!(self.partial_cmp(other), Some(std::cmp::Ordering::Less))
    }

    /// `-0.0` folds into `+0.0` so this heap's `partial_cmp` order and
    /// [`IndexedMinHeap`]'s `total_cmp` order agree on every stored key.
    fn canon(self) -> Self {
        canon_f64(self)
    }
}

impl HeapKey for Tick {
    fn key_lt(&self, other: &Self) -> bool {
        self < other
    }
}

/// A reusable scratch min-heap for partial selection by `(key, id)`.
///
/// Callers that need the lowest-key prefix of a candidate set — victim
/// planning, profile pruning — load it in O(k) and pop each selected
/// entry in O(log k), so selecting `m` of `k` candidates costs
/// O(k + m log k) instead of the O(k log k) full `sort_by` it replaces.
/// The order is the **total** order `(key ascending, then ObjectId
/// ascending)` — identical to the comparator the old sorts used — so the
/// popped sequence is unique regardless of how the candidates were
/// arranged when loaded.
///
/// The key type is generic over [`HeapKey`]: `f64` for utility selection,
/// [`Tick`] for recency selection (profile pruning keeps its exact
/// integer `(tick, object-id)` tie-break this way, with no float
/// round-trip).
///
/// The buffer is owned by long-lived state and reused across calls;
/// `load` clears and refills it without freeing the allocation.
#[derive(Clone, Debug, Default)]
pub struct SelectionHeap<K: HeapKey = f64> {
    /// Heap-ordered (object, key) pairs under the `(key, id)` total order.
    items: Vec<(ObjectId, K)>,
}

impl<K: HeapKey> SelectionHeap<K> {
    /// An empty scratch heap.
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Number of entries currently loaded.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff no entries are loaded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Discard previous contents and heapify `candidates` in O(k).
    pub fn load(&mut self, candidates: impl Iterator<Item = (ObjectId, K)>) {
        self.items.clear();
        self.items.extend(candidates.map(|(o, k)| (o, k.canon())));
        let len = self.items.len();
        for pos in (0..len / 2).rev() {
            self.sift_down(pos);
        }
    }

    /// Remove and return the minimum entry under `(key, id)`.
    pub fn pop_min(&mut self) -> Option<(ObjectId, K)> {
        let last = self.items.len().checked_sub(1)?;
        self.items.swap(0, last);
        let min = self.items.pop()?;
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        Some(min)
    }

    /// `a` orders strictly before `b`: ascending key, ties broken by
    /// ascending id.
    fn before(a: (ObjectId, K), b: (ObjectId, K)) -> bool {
        if a.1.key_lt(&b.1) {
            return true;
        }
        if b.1.key_lt(&a.1) {
            return false;
        }
        a.0 < b.0
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            let right = 2 * pos + 2;
            let mut smallest = pos;
            if left < self.items.len() && Self::before(self.items[left], self.items[smallest]) {
                smallest = left;
            }
            if right < self.items.len() && Self::before(self.items[right], self.items[smallest]) {
                smallest = right;
            }
            if smallest == pos {
                break;
            }
            self.items.swap(pos, smallest);
            pos = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_types::SplitMix64;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn push_pop_in_order() {
        let mut h = IndexedMinHeap::new();
        h.push(oid(0), 5.0);
        h.push(oid(1), 1.0);
        h.push(oid(2), 3.0);
        assert_eq!(h.pop_min(), Some((oid(1), 1.0)));
        assert_eq!(h.pop_min(), Some((oid(2), 3.0)));
        assert_eq!(h.pop_min(), Some((oid(0), 5.0)));
        assert_eq!(h.pop_min(), None);
    }

    #[test]
    fn pop_breaks_ties_by_ascending_id() {
        let mut h = IndexedMinHeap::new();
        h.push(oid(9), 1.0);
        h.push(oid(2), 1.0);
        h.push(oid(5), 1.0);
        h.push(oid(0), 2.0);
        assert_eq!(h.pop_min(), Some((oid(2), 1.0)));
        assert_eq!(h.pop_min(), Some((oid(5), 1.0)));
        assert_eq!(h.pop_min(), Some((oid(9), 1.0)));
        assert_eq!(h.pop_min(), Some((oid(0), 2.0)));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut h = IndexedMinHeap::new();
        h.push(oid(7), 2.0);
        assert_eq!(h.peek_min(), Some((oid(7), 2.0)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn contains_and_key_of() {
        let mut h = IndexedMinHeap::new();
        h.push(oid(3), 9.0);
        assert!(h.contains(oid(3)));
        assert!(!h.contains(oid(4)));
        assert_eq!(h.key_of(oid(3)), Some(9.0));
        assert_eq!(h.key_of(oid(99)), None);
    }

    #[test]
    fn remove_middle_preserves_invariant() {
        let mut h = IndexedMinHeap::new();
        for i in 0..20 {
            h.push(oid(i), (i as f64 * 7.3) % 11.0);
        }
        assert!(h.validate());
        assert!(h.remove(oid(10)).is_some());
        assert!(h.remove(oid(0)).is_some());
        assert!(h.remove(oid(19)).is_some());
        assert_eq!(h.remove(oid(10)), None);
        assert!(h.validate());
        assert_eq!(h.len(), 17);
    }

    #[test]
    fn update_key_reorders() {
        let mut h = IndexedMinHeap::new();
        h.push(oid(0), 1.0);
        h.push(oid(1), 2.0);
        h.push(oid(2), 3.0);
        h.update_key(oid(2), 0.5);
        assert_eq!(h.peek_min(), Some((oid(2), 0.5)));
        h.update_key(oid(2), 10.0);
        assert_eq!(h.peek_min(), Some((oid(0), 1.0)));
        assert!(h.validate());
    }

    #[test]
    fn update_key_to_equal_key_keeps_position() {
        let mut h = IndexedMinHeap::new();
        h.push(oid(0), 1.0);
        h.push(oid(1), 2.0);
        h.push(oid(2), 1.0);
        h.update_key(oid(0), 1.0);
        assert_eq!(h.peek_min(), Some((oid(0), 1.0)));
        assert!(h.validate());
        assert_eq!(h.pop_min(), Some((oid(0), 1.0)));
        assert_eq!(h.pop_min(), Some((oid(2), 1.0)));
    }

    #[test]
    fn update_key_inserts_when_absent() {
        let mut h = IndexedMinHeap::new();
        h.update_key(oid(5), 4.0);
        assert_eq!(h.key_of(oid(5)), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "duplicate heap insert")]
    fn duplicate_push_panics() {
        let mut h = IndexedMinHeap::new();
        h.push(oid(1), 1.0);
        h.push(oid(1), 2.0);
    }

    #[test]
    fn clear_empties() {
        let mut h = IndexedMinHeap::new();
        h.push(oid(0), 1.0);
        h.push(oid(1), 2.0);
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(oid(0)));
        h.push(oid(0), 3.0); // reusable after clear
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn randomized_against_sort() {
        let mut rng = SplitMix64::new(99);
        let mut h = IndexedMinHeap::new();
        let mut reference: Vec<(u32, f64)> = Vec::new();
        for i in 0..500u32 {
            let key = rng.next_f64();
            h.push(oid(i), key);
            reference.push((i, key));
        }
        // Random removals.
        for _ in 0..200 {
            let pick = rng.next_bounded(reference.len() as u64) as usize;
            let (id, _) = reference.swap_remove(pick);
            h.remove(oid(id));
        }
        // Random re-keys.
        for _ in 0..100 {
            let pick = rng.next_bounded(reference.len() as u64) as usize;
            let new_key = rng.next_f64();
            reference[pick].1 = new_key;
            h.update_key(oid(reference[pick].0), new_key);
        }
        assert!(h.validate());
        reference.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for &(id, key) in &reference {
            let (got_id, got_key) = h.pop_min().unwrap();
            assert_eq!(got_key, key);
            assert_eq!(got_id, oid(id));
        }
        assert!(h.is_empty());
    }

    #[test]
    fn scan_min_agrees_with_peek() {
        let mut rng = SplitMix64::new(41);
        let mut h = IndexedMinHeap::new();
        for i in 0..64u32 {
            // Quantized keys make (key, id) tie-breaks common.
            h.push(oid(i), (rng.next_bounded(6) as f64) / 2.0);
        }
        while !h.is_empty() {
            assert_eq!(h.scan_min(), h.peek_min());
            h.pop_min();
        }
        assert_eq!(h.scan_min(), None);
    }

    #[test]
    fn negative_zero_ties_break_by_id_in_both_heaps() {
        // -0.0 is the one non-NaN value where total_cmp (IndexedMinHeap)
        // and partial_cmp (SelectionHeap) disagree; canonicalization on
        // insert/update must make both heaps store +0.0 and settle the
        // tie by id alone.
        let mut h = IndexedMinHeap::new();
        h.push(oid(1), -0.0);
        h.push(oid(0), 0.0);
        assert_eq!(h.peek_min(), Some((oid(0), 0.0)));
        assert!(h.peek_min().unwrap().1.is_sign_positive());
        h.update_key(oid(0), -0.0); // update path canonicalizes too
        assert_eq!(h.pop_min(), Some((oid(0), 0.0)));
        let popped = h.pop_min().unwrap();
        assert_eq!(popped.0, oid(1));
        assert!(popped.1.is_sign_positive());

        let mut s = SelectionHeap::new();
        s.load([(oid(3), -0.0f64), (oid(2), 0.0)].into_iter());
        let first = s.pop_min().unwrap();
        let second = s.pop_min().unwrap();
        assert_eq!((first.0, second.0), (oid(2), oid(3)));
        assert!(first.1.is_sign_positive() && second.1.is_sign_positive());
    }

    #[test]
    fn selection_heap_pops_sorted_with_id_tiebreak() {
        let mut s = SelectionHeap::new();
        s.load([(oid(5), 2.0), (oid(1), 2.0), (oid(9), 1.0), (oid(3), 2.0)].into_iter());
        assert_eq!(s.len(), 4);
        assert_eq!(s.pop_min(), Some((oid(9), 1.0)));
        assert_eq!(s.pop_min(), Some((oid(1), 2.0)));
        assert_eq!(s.pop_min(), Some((oid(3), 2.0)));
        assert_eq!(s.pop_min(), Some((oid(5), 2.0)));
        assert_eq!(s.pop_min(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn selection_heap_reload_discards_previous() {
        let mut s = SelectionHeap::new();
        s.load([(oid(0), 9.0)].into_iter());
        s.load([(oid(1), 1.0), (oid(2), 2.0)].into_iter());
        assert_eq!(s.pop_min(), Some((oid(1), 1.0)));
        assert_eq!(s.pop_min(), Some((oid(2), 2.0)));
        assert_eq!(s.pop_min(), None);
    }

    #[test]
    fn selection_heap_matches_full_sort_randomized() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..50 {
            let n = 1 + rng.next_bounded(40) as usize;
            // Quantize keys so ties are common and the id tie-break works.
            let mut reference: Vec<(ObjectId, f64)> = (0..n)
                .map(|i| (oid(i as u32), (rng.next_bounded(5) as f64) / 2.0))
                .collect();
            let mut s = SelectionHeap::new();
            s.load(reference.iter().copied());
            reference.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            let mut popped = Vec::new();
            while let Some(item) = s.pop_min() {
                popped.push(item);
            }
            assert_eq!(popped, reference);
        }
    }

    #[test]
    fn selection_heap_orders_tick_keys_exactly() {
        let mut s: SelectionHeap<Tick> = SelectionHeap::new();
        s.load(
            [
                (oid(4), Tick::new(10)),
                (oid(1), Tick::new(10)),
                (oid(7), Tick::new(3)),
                (oid(0), Tick::new(12)),
            ]
            .into_iter(),
        );
        assert_eq!(s.pop_min(), Some((oid(7), Tick::new(3))));
        assert_eq!(s.pop_min(), Some((oid(1), Tick::new(10))));
        assert_eq!(s.pop_min(), Some((oid(4), Tick::new(10))));
        assert_eq!(s.pop_min(), Some((oid(0), Tick::new(12))));
        assert_eq!(s.pop_min(), None);
    }
}
