//! `CountTree`: the balanced search tree of approximate key frequencies
//! maintained during the batching phase (§4.1, Fig. 5).
//!
//! The tree is ordered by `(count, key)`, so an in-order traversal yields the
//! keys sorted by (approximate) frequency with no sorting step at the
//! heartbeat. The accumulator updates a key's count by removing its
//! `(old_count, key)` entry and inserting `(new_count, key)` — two O(log K)
//! descents, matching the paper's bound of `K·log K` total update work per
//! batch under the budgeted update policy.
//!
//! The paper draws a binary tree; what Algorithm 1 needs from it is only the
//! total order, the logarithmic update and the in-order walk. A B-tree gives
//! all three with a dozen entries per node instead of one, so a descent
//! touches a third as many cache lines and an update shifts entries inside a
//! node instead of rotating pointers. The standard library's
//! `BTreeSet<(u64, Key)>` is that tree; replaying one 500k-tuple Zipf batch's
//! 220k tree operations costs 28–35 ms in it against 72–78 ms in the
//! hand-written AVL slab it replaced (EXPERIMENTS.md, "Algorithm 1 at memory
//! speed").

use std::collections::BTreeSet;

use crate::types::Key;

/// Ordered set of `(count, key)` pairs. Each pair appears at most once.
///
/// # Examples
///
/// ```
/// use prompt_core::buffering::CountTree;
/// use prompt_core::types::Key;
///
/// let mut tree = CountTree::new();
/// tree.insert(3, Key(1));
/// tree.insert(10, Key(2));
/// // Updating a key's count = remove old pair + insert new pair.
/// assert!(tree.remove(3, Key(1)));
/// tree.insert(4, Key(1));
/// // In-order traversal yields keys by descending frequency.
/// assert_eq!(tree.traverse_desc(), vec![(Key(2), 10), (Key(1), 4)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CountTree {
    entries: BTreeSet<(u64, Key)>,
}

impl CountTree {
    /// An empty tree.
    pub fn new() -> CountTree {
        CountTree::default()
    }

    /// Number of `(count, key)` entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove all entries (the tree is rebuilt from empty every batch, §4.1).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Insert `(count, key)`. Returns `false` (and leaves the tree unchanged)
    /// if the pair was already present.
    #[inline]
    pub fn insert(&mut self, count: u64, key: Key) -> bool {
        self.entries.insert((count, key))
    }

    /// Remove `(count, key)`. Returns `true` if the pair was present.
    #[inline]
    pub fn remove(&mut self, count: u64, key: Key) -> bool {
        self.entries.remove(&(count, key))
    }

    /// In-order walk in **descending** `(count, key)` order — the
    /// quasi-sorted key list handed to the partitioning algorithm at the
    /// heartbeat.
    pub fn iter_desc(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        self.entries.iter().rev().map(|&(count, key)| (key, count))
    }

    /// [`Self::iter_desc`], collected.
    pub fn traverse_desc(&self) -> Vec<(Key, u64)> {
        self.iter_desc().collect()
    }

    /// The largest count in the tree, if any.
    pub fn max_count(&self) -> Option<u64> {
        self.entries.last().map(|&(count, _)| count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut t = CountTree::new();
        assert!(t.is_empty());
        assert!(t.insert(5, Key(1)));
        assert!(t.insert(3, Key(2)));
        assert!(t.insert(7, Key(3)));
        assert!(!t.insert(5, Key(1)), "duplicate insert must be a no-op");
        assert_eq!(t.len(), 3);
        assert!(t.remove(3, Key(2)));
        assert!(!t.remove(3, Key(2)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn traversal_is_descending() {
        let mut t = CountTree::new();
        for (c, k) in [(10u64, 1u64), (3, 2), (7, 3), (7, 4), (1, 5), (100, 6)] {
            t.insert(c, Key(k));
        }
        let order = t.traverse_desc();
        let counts: Vec<u64> = order.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![100, 10, 7, 7, 3, 1]);
        // Ties broken by key, descending.
        assert_eq!(order[2].0, Key(4));
        assert_eq!(order[3].0, Key(3));
        assert_eq!(t.max_count(), Some(100));
    }

    #[test]
    fn update_pattern_remove_then_insert() {
        let mut t = CountTree::new();
        t.insert(1, Key(42));
        assert!(t.remove(1, Key(42)));
        assert!(t.insert(2, Key(42)));
        assert_eq!(t.traverse_desc(), vec![(Key(42), 2)]);
    }

    #[test]
    fn clear_resets() {
        let mut t = CountTree::new();
        for k in 0..100 {
            t.insert(k, Key(k));
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.max_count(), None);
        assert!(t.traverse_desc().is_empty());
        t.insert(1, Key(1));
        assert_eq!(t.len(), 1);
    }
}
