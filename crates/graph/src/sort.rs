//! Edge-list sorting baselines for the sorting-vs-streaming experiment
//! (paper Fig. 18).
//!
//! The paper compares the time to *sort* an RMAT edge list (the
//! pre-processing step every index-based system needs) against the time
//! for X-Stream to finish whole computations on the unsorted list. Both
//! a comparison sort (libc quicksort there, [`quicksort_by_source`]
//! here) and a distribution sort exploiting the known key space
//! ([`counting_sort_by_source`]) are measured, single-threaded.

use crate::edgelist::EdgeList;
use xstream_storage::shuffle::shuffle;

/// Sorts edges by source vertex with an in-place comparison sort.
///
/// The standard library's unstable sort is a pattern-defeating
/// quicksort, matching the paper's `qsort` baseline.
pub fn quicksort_by_source(g: &mut EdgeList) {
    g.edges_mut().sort_unstable_by_key(|e| e.src);
}

/// Sorts edges by source vertex with an out-of-place counting sort over
/// the known vertex-id key space, the paper's faster sorting baseline:
/// the same stable counting placement both engines build with, keyed
/// by source over all vertices.
pub fn counting_sort_by_source(g: &mut EdgeList) {
    let n = g.num_vertices();
    let sorted = shuffle(g.edges(), n, |e| e.src as usize);
    g.edges_mut().copy_from_slice(sorted.as_slice());
}

/// Checks that `g` is sorted by source (test helper).
pub fn is_sorted_by_source(g: &EdgeList) -> bool {
    g.edges().windows(2).all(|w| w[0].src <= w[1].src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;

    #[test]
    fn quicksort_sorts() {
        let mut g = erdos_renyi(64, 1000, 5);
        quicksort_by_source(&mut g);
        assert!(is_sorted_by_source(&g));
    }

    #[test]
    fn counting_sort_sorts_and_matches_quicksort_keys() {
        let mut a = erdos_renyi(64, 1000, 5);
        let mut b = a.clone();
        quicksort_by_source(&mut a);
        counting_sort_by_source(&mut b);
        assert!(is_sorted_by_source(&b));
        // Same multiset of sources in the same order of keys.
        let ka: Vec<u32> = a.edges().iter().map(|e| e.src).collect();
        let kb: Vec<u32> = b.edges().iter().map(|e| e.src).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn counting_sort_is_stable() {
        use crate::edgelist::from_pairs;
        let mut g = from_pairs(3, &[(1, 0), (0, 1), (1, 2), (0, 2)]);
        counting_sort_by_source(&mut g);
        // Stability: (0,1) before (0,2), (1,0) before (1,2).
        let dsts: Vec<u32> = g.edges().iter().map(|e| e.dst).collect();
        assert_eq!(dsts, vec![1, 2, 0, 2]);
    }

    #[test]
    fn empty_list_is_fine() {
        let mut g = EdgeList::empty(10);
        quicksort_by_source(&mut g);
        counting_sort_by_source(&mut g);
        assert_eq!(g.num_edges(), 0);
    }
}
