//! Property suite for the tier merge primitive (`li_core::merge`): the
//! splice of any number of sorted, mutually disjoint slices equals the
//! `BTreeSet` union of their keys — whichever slice is the large one,
//! wherever it sits in the argument list, wherever the small keys fall
//! relative to it, and in both output forms.

use std::collections::BTreeSet;

use learned_indexes::models::rng::SplitMix64;
use learned_indexes::rmi::merge::{splice_merge_arc, splice_merge_vec};
use proptest::prelude::*;

/// Slice lengths by class: empty, single, small, a sealed run's worth.
const SMALL_LENS: [usize; 5] = [0, 1, 1, 9, 300];
/// The large slice, from "not large at all" to a hundred times a small.
const LARGE_LENS: [usize; 4] = [0, 1, 50, 4000];

const LARGE_LO: u64 = 1 << 40;
const LARGE_HI: u64 = 1 << 41;

/// `len` keys nobody has yet, uniform in `[lo, hi)`.
fn fresh_keys(
    rng: &mut SplitMix64,
    used: &mut BTreeSet<u64>,
    len: usize,
    lo: u64,
    hi: u64,
) -> Vec<u64> {
    let mut keys = BTreeSet::new();
    while keys.len() < len {
        let k = lo + rng.next_u64() % (hi - lo);
        if used.insert(k) {
            keys.insert(k);
        }
    }
    keys.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn splice_merge_is_the_btreeset_union(
        small_classes in prop::collection::vec(0usize..5, 0..6),
        large_class in 0usize..4,
        large_at in 0usize..6,
        // Small keys all below the large slice, all above it, or among it.
        placement in 0u8..3,
        with_max in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut used = BTreeSet::new();
        let (lo, hi) = match placement {
            0 => (0, LARGE_LO),
            1 => (LARGE_HI, u64::MAX),
            _ => (LARGE_LO, LARGE_HI),
        };
        let mut slices: Vec<Vec<u64>> = small_classes
            .iter()
            .map(|&c| fresh_keys(&mut rng, &mut used, SMALL_LENS[c], lo, hi))
            .collect();
        if with_max && used.insert(u64::MAX) {
            match slices.last_mut() {
                Some(last) => last.push(u64::MAX),
                None => slices.push(vec![u64::MAX]),
            }
        }
        let large = fresh_keys(&mut rng, &mut used, LARGE_LENS[large_class], LARGE_LO, LARGE_HI);
        slices.insert(large_at.min(slices.len()), large);

        let views: Vec<&[u64]> = slices.iter().map(Vec::as_slice).collect();
        let want: Vec<u64> = used.into_iter().collect();
        prop_assert_eq!(&splice_merge_vec(&views), &want);
        prop_assert_eq!(&*splice_merge_arc(&views), want.as_slice());
    }
}

/// The tiers as a compaction sees them, at the benchmark's proportions:
/// four sealed runs of 1 024 keys into a 400 k-key base.
#[test]
fn four_runs_into_a_base_a_hundred_times_their_size() {
    let mut rng = SplitMix64::new(9);
    let mut used = BTreeSet::new();
    let base = fresh_keys(&mut rng, &mut used, 400_000, 0, u64::MAX);
    let runs: Vec<Vec<u64>> = (0..4)
        .map(|_| fresh_keys(&mut rng, &mut used, 1024, 0, u64::MAX))
        .collect();
    let mut views: Vec<&[u64]> = vec![&base];
    views.extend(runs.iter().map(Vec::as_slice));
    let want: Vec<u64> = used.into_iter().collect();
    assert_eq!(&*splice_merge_arc(&views), want.as_slice());
}
