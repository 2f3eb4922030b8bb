//! Bin-packing substrate for the two partitioning problems (§4.2, §5).
//!
//! The paper reduces batch partitioning to *Balanced Bin Packing with
//! Fragmentable Items* (B-BPFI, Definition 1) and reduce-bucket allocation to
//! *Balanced Bin Packing with Variable Capacity* (B-BPVC, Definition 2), both
//! NP-complete. This module provides:
//!
//! * an abstract instance/assignment representation with the objective
//!   metrics (fragments, size imbalance, cardinality imbalance);
//! * the two classical heuristics the paper contrasts in Fig. 6 —
//!   First-Fit-Decreasing with fragmentation (6a) and Fragmentation
//!   Minimisation (6b, sequential exact-fill);
//! * an exhaustive branch-and-bound reference solver for tiny instances,
//!   used by tests and benches to bound how far Algorithm 2's heuristic is
//!   from the optimum fragment count.

use crate::batch::SealedBatch;
use crate::partitioner::PromptPartitioner;
use crate::types::{Interval, Key, Time};

/// A B-BPFI instance: `items[i]` is item `i`'s size; `bins` equal-capacity
/// bins of capacity `capacity`.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Item sizes (tuple counts per key).
    pub items: Vec<usize>,
    /// Number of bins (data blocks).
    pub bins: usize,
    /// Per-bin capacity. Must satisfy `bins · capacity ≥ Σ items` (Eqn. 13).
    pub capacity: usize,
}

impl Instance {
    /// Build an instance with the canonical capacity `⌈Σ items / bins⌉`.
    pub fn balanced(items: Vec<usize>, bins: usize) -> Instance {
        assert!(bins > 0, "need at least one bin");
        let total: usize = items.iter().sum();
        Instance {
            items,
            bins,
            capacity: total.div_ceil(bins).max(1),
        }
    }

    /// Total size of all items.
    pub fn total(&self) -> usize {
        self.items.iter().sum()
    }
}

/// An assignment: for each bin, the `(item, fragment_size)` pairs placed in
/// it. An item appearing in `m` bins has `m` fragments.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    /// Per-bin fragment lists.
    pub bins: Vec<Vec<(usize, usize)>>,
}

impl Assignment {
    fn empty(bins: usize) -> Assignment {
        Assignment {
            bins: vec![Vec::new(); bins],
        }
    }

    /// Total number of fragments (`Σ y_ij`, the B-BPFI objective, Eqn. 7).
    pub fn fragments(&self) -> usize {
        self.bins.iter().map(|b| b.len()).sum()
    }

    /// Per-bin sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.bins
            .iter()
            .map(|b| b.iter().map(|&(_, s)| s).sum())
            .collect()
    }

    /// Per-bin distinct item counts.
    pub fn cardinalities(&self) -> Vec<usize> {
        self.bins.iter().map(|b| b.len()).collect()
    }

    /// Verify the assignment covers `inst` exactly: every item's fragments
    /// sum to its size (Eqn. 8) and no fragment is empty.
    pub fn validate(&self, inst: &Instance) {
        assert_eq!(self.bins.len(), inst.bins, "bin count mismatch");
        let mut totals = vec![0usize; inst.items.len()];
        for b in &self.bins {
            for &(item, size) in b {
                assert!(size > 0, "empty fragment for item {item}");
                totals[item] += size;
            }
        }
        assert_eq!(totals, inst.items, "fragments must cover items exactly");
    }
}

/// First-Fit-Decreasing with fragmentation (Fig. 6a): items descending;
/// each item goes to the first bin with remaining capacity, splitting into
/// the following bins when it does not fit whole. Greedy and fast, but
/// fragments freely and concentrates cardinality in the later bins.
#[allow(clippy::needless_range_loop)] // indexes two parallel arrays
pub fn first_fit_decreasing(inst: &Instance) -> Assignment {
    let mut order: Vec<usize> = (0..inst.items.len()).collect();
    order.sort_by(|&a, &b| inst.items[b].cmp(&inst.items[a]).then(a.cmp(&b)));
    let mut out = Assignment::empty(inst.bins);
    let mut remaining = vec![inst.capacity; inst.bins];
    for item in order {
        let mut left = inst.items[item];
        for b in 0..inst.bins {
            if left == 0 {
                break;
            }
            if remaining[b] == 0 {
                continue;
            }
            let take = left.min(remaining[b]);
            out.bins[b].push((item, take));
            remaining[b] -= take;
            left -= take;
        }
        assert_eq!(left, 0, "instance capacity insufficient (Eqn. 13)");
    }
    out
}

/// Fragmentation Minimisation (Fig. 6b; Menakerman & Rom, LeCun et al.):
/// fill bins sequentially to exact capacity, cutting an item only at a bin
/// boundary. Guarantees at most `bins − 1` splits (the classical worst-case
/// bound; instance-optimal fragment counts require search — see
/// [`exact_min_fragments`]) but ignores cardinality balance entirely (the
/// last bins collect all the small items).
pub fn fragmentation_minimization(inst: &Instance) -> Assignment {
    let mut order: Vec<usize> = (0..inst.items.len()).collect();
    order.sort_by(|&a, &b| inst.items[b].cmp(&inst.items[a]).then(a.cmp(&b)));
    let mut out = Assignment::empty(inst.bins);
    let mut bin = 0usize;
    let mut remaining = inst.capacity;
    for item in order {
        let mut left = inst.items[item];
        while left > 0 {
            if remaining == 0 {
                bin += 1;
                assert!(bin < inst.bins, "instance capacity insufficient");
                remaining = inst.capacity;
            }
            let take = left.min(remaining);
            out.bins[bin].push((item, take));
            remaining -= take;
            left -= take;
        }
    }
    out
}

/// Best-Fit-Decreasing with fragmentation: items descending; each item goes
/// to the *fullest* bin that still has room, splitting only when no single
/// bin can hold it (the remainder recurses). The classical BP heuristic the
/// paper's zigzag phase emulates "without the need and cost to maintain the
/// block sizes" (§4.2).
pub fn best_fit_decreasing(inst: &Instance) -> Assignment {
    let mut order: Vec<usize> = (0..inst.items.len()).collect();
    order.sort_by(|&a, &b| inst.items[b].cmp(&inst.items[a]).then(a.cmp(&b)));
    let mut out = Assignment::empty(inst.bins);
    let mut remaining = vec![inst.capacity; inst.bins];
    for item in order {
        let mut left = inst.items[item];
        while left > 0 {
            // Fullest bin that fits the whole remainder…
            let fit = (0..inst.bins)
                .filter(|&b| remaining[b] >= left)
                .min_by_key(|&b| (remaining[b], b));
            if let Some(b) = fit {
                out.bins[b].push((item, left));
                remaining[b] -= left;
                break;
            }
            // …otherwise fill the emptiest bin and keep the rest.
            let b = (0..inst.bins)
                .max_by_key(|&b| (remaining[b], usize::MAX - b))
                .expect("bins ≥ 1");
            let take = remaining[b];
            assert!(take > 0, "instance capacity insufficient (Eqn. 13)");
            out.bins[b].push((item, take));
            remaining[b] = 0;
            left -= take;
        }
    }
    out
}

/// Next-Fit with fragmentation: the cheapest online heuristic — keep one
/// open bin, split at its boundary, move on. Used as the quality floor in
/// the heuristic comparisons.
pub fn next_fit(inst: &Instance) -> Assignment {
    let mut out = Assignment::empty(inst.bins);
    let mut bin = 0usize;
    let mut remaining = inst.capacity;
    for (item, &size) in inst.items.iter().enumerate() {
        let mut left = size;
        while left > 0 {
            if remaining == 0 {
                bin += 1;
                assert!(bin < inst.bins, "instance capacity insufficient");
                remaining = inst.capacity;
            }
            let take = left.min(remaining);
            out.bins[bin].push((item, take));
            remaining -= take;
            left -= take;
        }
    }
    out
}

/// Run Algorithm 2 on an abstract instance (items become synthetic key
/// groups) and convert the plan back to an [`Assignment`], so the heuristic
/// can be compared against the reference algorithms on equal terms.
pub fn prompt_heuristic(inst: &Instance) -> Assignment {
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut counts: Vec<(Key, usize)> = (inst.items.iter().enumerate())
        .map(|(i, &size)| (Key(i as u64), size))
        .collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let sealed = SealedBatch::synthetic(&counts, iv);
    let plan = PromptPartitioner::partition_sealed(&sealed, inst.bins);
    let mut out = Assignment::empty(inst.bins);
    for (b, block) in plan.blocks.iter().enumerate() {
        for f in &block.runs {
            out.bins[b].push((f.key.0 as usize, f.count));
        }
    }
    out
}

/// The trivial capacity lower bound on the number of bins needed to pack
/// `items` whole into bins of `capacity`: `⌈Σ items / capacity⌉`.
pub fn l1_bound(items: &[usize], capacity: usize) -> usize {
    assert!(capacity > 0);
    items.iter().sum::<usize>().div_ceil(capacity)
}

/// The Martello–Toth L2 lower bound on bins for whole-item packing: for a
/// threshold `t ≤ capacity/2`, large items (> capacity − t) each need their
/// own bin, medium items (in `(capacity/2, capacity − t]`) cannot share with
/// each other, and the leftover volume of small items (≥ t) must fit in the
/// spare space. L2 = max over all thresholds. Always ≥ [`l1_bound`].
///
/// Used by tests to certify that the *fragmenting* heuristics genuinely
/// profit from fragmentation: with `bins < L2`, whole-item packing is
/// impossible, yet every B-BPFI heuristic here still packs by splitting.
pub fn l2_bound(items: &[usize], capacity: usize) -> usize {
    assert!(capacity > 0);
    let mut best = l1_bound(items, capacity);
    let thresholds: std::collections::BTreeSet<usize> = items
        .iter()
        .copied()
        .filter(|&s| s <= capacity / 2)
        .chain(std::iter::once(0))
        .collect();
    for t in thresholds {
        let large = items.iter().filter(|&&s| s > capacity - t).count();
        let medium: Vec<usize> = items
            .iter()
            .copied()
            .filter(|&s| s > capacity / 2 && s <= capacity - t)
            .collect();
        let small_volume: usize = items
            .iter()
            .copied()
            .filter(|&s| s >= t && s <= capacity / 2)
            .sum();
        let medium_spare: usize = medium.iter().map(|&s| capacity - s).sum();
        let extra = small_volume.saturating_sub(medium_spare).div_ceil(capacity);
        best = best.max(large + medium.len() + extra);
    }
    best
}

/// Exact minimum-fragment packing by iterative-deepening branch and bound.
///
/// Finds an assignment with the fewest fragments subject to the capacity
/// constraint. A standard exchange argument shows an optimal solution exists
/// in which every split fills some bin exactly, so the search either places
/// an item whole or uses it to top off a bin. Exponential — instances are
/// limited to 14 items, mirroring the paper's observation that exact B-BPFI
/// solvers "involve problem instances with no more than 100 items".
///
/// Returns `None` if the instance is infeasible (violates Eqn. 13).
pub fn exact_min_fragments(inst: &Instance) -> Option<Assignment> {
    assert!(
        inst.items.len() <= 14,
        "exact solver is for tiny reference instances"
    );
    if inst.total() > inst.bins * inst.capacity {
        return None;
    }
    let k = inst.items.len();
    // Search with at most `splits` extra fragments, growing until success.
    for splits in 0..=(k + inst.bins) {
        let mut state = SearchState {
            inst,
            remaining: vec![inst.capacity; inst.bins],
            out: Assignment::empty(inst.bins),
            splits_left: splits,
        };
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| inst.items[b].cmp(&inst.items[a]));
        let sizes: Vec<usize> = order.iter().map(|&i| inst.items[i]).collect();
        if dfs(&mut state, &order, &sizes, 0) {
            return Some(state.out);
        }
    }
    None
}

struct SearchState<'a> {
    inst: &'a Instance,
    remaining: Vec<usize>,
    out: Assignment,
    splits_left: usize,
}

fn dfs(st: &mut SearchState<'_>, order: &[usize], sizes: &[usize], idx: usize) -> bool {
    if idx == order.len() {
        return true;
    }
    let item = order[idx];
    let size = sizes[idx];
    if size == 0 {
        return dfs(st, order, sizes, idx + 1);
    }
    // Option A: place whole. Skip symmetric bins (same remaining capacity).
    let mut tried: Vec<usize> = Vec::new();
    for b in 0..st.inst.bins {
        let cap = st.remaining[b];
        if cap < size || tried.contains(&cap) {
            continue;
        }
        tried.push(cap);
        st.remaining[b] -= size;
        st.out.bins[b].push((item, size));
        if dfs(st, order, sizes, idx + 1) {
            return true;
        }
        st.out.bins[b].pop();
        st.remaining[b] += size;
    }
    // Option B: split — fill one bin exactly, keep the rest of the item.
    if st.splits_left > 0 {
        let mut tried: Vec<usize> = Vec::new();
        for b in 0..st.inst.bins {
            let cap = st.remaining[b];
            if cap == 0 || cap >= size || tried.contains(&cap) {
                continue;
            }
            tried.push(cap);
            st.remaining[b] = 0;
            st.out.bins[b].push((item, cap));
            st.splits_left -= 1;
            // The residue of this item is processed next (same item id).
            let mut sizes2 = sizes.to_vec();
            let mut order2 = order.to_vec();
            sizes2[idx] = size - cap;
            order2.rotate_left(0); // no-op; keep order, retry same idx
            if dfs(st, &order2, &sizes2, idx) {
                return true;
            }
            st.splits_left += 1;
            st.out.bins[b].pop();
            st.remaining[b] = cap;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::size_imbalance;

    #[test]
    fn paper_fig6_instance() {
        // The Fig. 5/6 running example: 385 tuples, 8 keys, 4 bins.
        let inst = Instance::balanced(vec![140, 90, 45, 40, 30, 20, 12, 8], 4);
        assert_eq!(inst.capacity, 97); // ceil(385/4)

        let ffd = first_fit_decreasing(&inst);
        ffd.validate(&inst);
        let fmin = fragmentation_minimization(&inst);
        fmin.validate(&inst);
        let prompt = prompt_heuristic(&inst);
        prompt.validate(&inst);

        // Fig. 6: FFD fragments more than fragmentation-minimisation; the
        // minimiser achieves ≤ bins−1 splits (fragments ≤ items + bins − 1).
        assert!(fmin.fragments() < inst.items.len() + inst.bins);
        assert!(ffd.fragments() >= fmin.fragments());

        // Prompt strikes the balance: few fragments AND balanced
        // cardinality, unlike the minimiser whose last bin hoards items.
        let prompt_cards = prompt.cardinalities();
        let fmin_cards = fmin.cardinalities();
        let spread = |c: &[usize]| c.iter().max().unwrap() - c.iter().min().unwrap();
        assert!(
            spread(&prompt_cards) <= spread(&fmin_cards),
            "prompt cards {prompt_cards:?} vs fmin {fmin_cards:?}"
        );
        assert!(
            prompt.fragments() <= ffd.fragments(),
            "prompt {} vs ffd {}",
            prompt.fragments(),
            ffd.fragments()
        );
    }

    #[test]
    fn ffd_fills_greedily() {
        let inst = Instance {
            items: vec![6, 4, 2],
            bins: 2,
            capacity: 6,
        };
        let a = first_fit_decreasing(&inst);
        a.validate(&inst);
        assert_eq!(a.sizes(), vec![6, 6]);
        // Item 0 (size 6) fills bin 0; items 1 and 2 go to bin 1 whole.
        assert_eq!(a.fragments(), 3);
    }

    #[test]
    fn fragmentation_minimizer_splits_at_most_bins_minus_one() {
        let inst = Instance::balanced(vec![9, 8, 7, 6, 5, 4, 3, 2, 1], 3);
        let a = fragmentation_minimization(&inst);
        a.validate(&inst);
        assert!(a.fragments() < inst.items.len() + inst.bins);
        // Sizes are exactly capacity for all but possibly the last bin.
        let sizes = a.sizes();
        for &s in &sizes[..inst.bins - 1] {
            assert_eq!(s, inst.capacity);
        }
    }

    #[test]
    fn exact_matches_obvious_optimum() {
        // 4 items of 5 into 2 bins of 10: packable with zero splits.
        let inst = Instance {
            items: vec![5, 5, 5, 5],
            bins: 2,
            capacity: 10,
        };
        let a = exact_min_fragments(&inst).expect("feasible");
        a.validate(&inst);
        assert_eq!(a.fragments(), 4, "no split needed");
    }

    #[test]
    fn exact_detects_required_split() {
        // Items 7,7,6 into 2 bins of 10: total 20, must split exactly once.
        let inst = Instance {
            items: vec![7, 7, 6],
            bins: 2,
            capacity: 10,
        };
        let a = exact_min_fragments(&inst).expect("feasible");
        a.validate(&inst);
        assert_eq!(a.fragments(), 4, "3 items + 1 split");
    }

    #[test]
    fn exact_infeasible_returns_none() {
        let inst = Instance {
            items: vec![10, 10],
            bins: 1,
            capacity: 15,
        };
        assert!(exact_min_fragments(&inst).is_none());
    }

    #[test]
    fn prompt_heuristic_near_optimal_fragments_on_small_instances() {
        let cases: Vec<Vec<usize>> = vec![
            vec![12, 9, 7, 5, 3, 2],
            vec![20, 1, 1, 1, 1, 1, 1, 1],
            vec![8, 8, 8, 8],
            vec![13, 11, 7, 5, 2],
        ];
        for items in cases {
            let inst = Instance::balanced(items.clone(), 3);
            let prompt = prompt_heuristic(&inst);
            prompt.validate(&inst);
            let exact = exact_min_fragments(&inst).expect("feasible");
            // Heuristic fragment count within items + 2·bins of optimum —
            // loose, but catches gross regressions.
            assert!(
                prompt.fragments() <= exact.fragments() + 2 * inst.bins,
                "items {items:?}: prompt {} vs exact {}",
                prompt.fragments(),
                exact.fragments()
            );
            // And sizes stay balanced (within one heavy-key cut of the
            // capacity).
            let bsi = size_imbalance(&prompt.sizes());
            assert!(bsi <= inst.capacity as f64, "bsi {bsi} too large");
        }
    }

    #[test]
    fn bfd_balances_better_than_ffd() {
        let inst = Instance::balanced(vec![40, 35, 30, 25, 20, 15, 10, 5], 4);
        let bfd = best_fit_decreasing(&inst);
        bfd.validate(&inst);
        let ffd = first_fit_decreasing(&inst);
        // BFD fills bins toward equal sizes; FFD front-loads.
        let spread = |a: &Assignment| {
            let s = a.sizes();
            *s.iter().max().unwrap() - *s.iter().min().unwrap()
        };
        assert!(
            spread(&bfd) <= spread(&ffd),
            "{:?} vs {:?}",
            bfd.sizes(),
            ffd.sizes()
        );
        assert!(bfd.fragments() >= inst.items.len());
    }

    #[test]
    fn bfd_splits_oversized_items() {
        let inst = Instance {
            items: vec![15, 3],
            bins: 3,
            capacity: 6,
        };
        let a = best_fit_decreasing(&inst);
        a.validate(&inst);
        // The 15-item cannot fit whole anywhere: it must fragment.
        let frags_of_0: usize = a
            .bins
            .iter()
            .flat_map(|b| b.iter())
            .filter(|&&(item, _)| item == 0)
            .count();
        assert!(
            frags_of_0 >= 3,
            "15 into capacity-6 bins needs ≥ 3 fragments"
        );
    }

    #[test]
    fn next_fit_is_the_floor() {
        let inst = Instance::balanced(vec![9, 8, 7, 6, 5, 4, 3, 2, 1], 3);
        let nf = next_fit(&inst);
        nf.validate(&inst);
        let fmin = fragmentation_minimization(&inst);
        // Next-fit on unsorted input fragments at least as much as the
        // minimiser (which is next-fit on *sorted* input).
        assert!(nf.fragments() >= fmin.fragments());
    }

    #[test]
    fn all_heuristics_agree_on_trivial_instances() {
        let inst = Instance {
            items: vec![5, 5],
            bins: 2,
            capacity: 5,
        };
        for a in [
            first_fit_decreasing(&inst),
            best_fit_decreasing(&inst),
            next_fit(&inst),
            fragmentation_minimization(&inst),
            prompt_heuristic(&inst),
        ] {
            a.validate(&inst);
            assert_eq!(a.fragments(), 2);
            assert_eq!(a.sizes(), vec![5, 5]);
        }
    }

    #[test]
    fn lower_bounds_are_ordered_and_tight_on_known_cases() {
        // 10 items of 6 into capacity 10: L1 = 6, L2 = 10 (no two fit).
        let items = vec![6; 10];
        assert_eq!(l1_bound(&items, 10), 6);
        assert_eq!(l2_bound(&items, 10), 10);
        // Mixed case: L2 ≥ L1 always.
        let items = vec![9, 8, 2, 2, 2, 1];
        assert!(l2_bound(&items, 10) >= l1_bound(&items, 10));
        assert_eq!(l1_bound(&items, 10), 3);
    }

    #[test]
    fn fragmentation_beats_the_whole_item_bound() {
        // Whole-item packing needs L2 = 10 bins; fragmentable packing fits
        // the same volume into the L1 = 6 bins.
        let items = vec![6; 10];
        let inst = Instance {
            items: items.clone(),
            bins: l1_bound(&items, 10),
            capacity: 10,
        };
        assert!(inst.bins < l2_bound(&items, 10));
        for a in [
            first_fit_decreasing(&inst),
            best_fit_decreasing(&inst),
            fragmentation_minimization(&inst),
            prompt_heuristic(&inst),
        ] {
            a.validate(&inst);
        }
    }

    #[test]
    fn balanced_constructor_capacity() {
        let inst = Instance::balanced(vec![3, 3, 3], 2);
        assert_eq!(inst.capacity, 5);
        assert_eq!(inst.total(), 9);
    }
}
