//! The one merge every tier operation goes through: a splice of a few
//! small sorted slices into one large one.
//!
//! A compaction folds the run tier (up to a sixteenth of the base) into
//! the base, and a run merge folds a few sealed runs into a run ten
//! times their size; a range scan or an export does the same with fewer
//! keys. A fold of two-way merges compares and moves **every base key
//! once per small slice** (five passes and five base-sized allocations
//! to fold four runs); a heap-based k-way merge moves each key once but
//! still pays a heap step for every base key. The splice instead treats
//! the largest slice as a spine that is only ever block-copied: the
//! other slices are merged among themselves first (they are small),
//! then for each of their keys the spine is walked forward from where
//! the last key landed — reading the cache lines the copy is about to
//! read — and the spine keys in between move with one
//! `copy_from_slice`. The output is written
//! exactly once, either appended to a vector or into a preallocated
//! slice, which lets a new base be merged straight into the array its
//! `KeyStore` will own (see `KeyStore::filled`).
//!
//! The result is the sorted union *as a multiset*: slices that overlap
//! (which the tier invariant forbids) yield equal adjacent keys rather
//! than an error, so callers can assert strict sortedness on the output.

use std::sync::Arc;

/// Where a splice writes, in output order: blocks of spine keys and
/// single small keys. A vector is appended to (a range scan's hundred
/// keys are not worth zero-filling first); a preallocated slice has to
/// exist before it can be written, so it is filled front to back.
trait Sink {
    fn block(&mut self, keys: &[u64]);
    fn key(&mut self, key: u64);
}

impl Sink for Vec<u64> {
    #[inline]
    fn block(&mut self, keys: &[u64]) {
        self.extend_from_slice(keys);
    }
    #[inline]
    fn key(&mut self, key: u64) {
        self.push(key);
    }
}

/// The part of a preallocated output not written yet.
struct Unwritten<'a>(&'a mut [u64]);

impl Sink for Unwritten<'_> {
    #[inline]
    fn block(&mut self, keys: &[u64]) {
        let (head, tail) = std::mem::take(&mut self.0).split_at_mut(keys.len());
        head.copy_from_slice(keys);
        self.0 = tail;
    }
    #[inline]
    fn key(&mut self, key: u64) {
        self.block(&[key]);
    }
}

/// Merge sorted `slices` into `out`. Which slice is the large one is
/// found here (the longest; it need not come first), not declared by
/// the caller.
fn splice_merge_into(slices: &[&[u64]], out: &mut impl Sink) {
    let Some((spine_at, spine)) = slices.iter().enumerate().max_by_key(|(_, s)| s.len()) else {
        return;
    };
    // The small side. A short range scan usually finds its few upper-
    // tier keys in one slice or none, which is then used as it is; two
    // or more are concatenated and sorted by a run-detecting merge sort
    // — a merge of the slices, at the cost of their own length only.
    let mut others = slices
        .iter()
        .enumerate()
        .filter(|&(at, s)| at != spine_at && !s.is_empty())
        .map(|(_, &s)| s);
    let merged: Vec<u64>;
    let small: &[u64] = match (others.next(), others.next()) {
        (None, _) => &[],
        (Some(only), None) => only,
        (Some(a), Some(b)) => {
            let mut all = Vec::with_capacity(total_len(slices) - spine.len());
            for s in [a, b].into_iter().chain(others) {
                all.extend_from_slice(s);
            }
            all.sort();
            merged = all;
            &merged
        }
    };

    let mut rest = *spine;
    for &key in small {
        let (below, above) = rest.split_at(count_past(rest, key));
        out.block(below);
        out.key(key);
        rest = above;
    }
    out.block(rest);
}

pub(crate) fn total_len(slices: &[&[u64]]) -> usize {
    slices.iter().map(|s| s.len()).sum()
}

/// Number of leading elements of sorted `s` that are `<= key`, counted
/// by walking from the front. The walk reads each spine key once, in
/// order, just before the block copy reads it again from cache; it
/// mispredicts once per call, where a galloping search mispredicts on
/// most of its steps. Measured on spines of 100 to 500 k keys with a
/// small key every 15 to 1 000 spine keys, walking was as fast or
/// faster in every case.
#[inline]
pub(crate) fn count_past(s: &[u64], key: u64) -> usize {
    s.iter().position(|&k| k > key).unwrap_or(s.len())
}

/// The sorted union of sorted `slices` as a fresh vector.
///
/// # Examples
/// ```
/// use li_core::merge::splice_merge_vec;
///
/// let base = [10u64, 20, 30, 40];
/// let merged = splice_merge_vec(&[&[5, 25], &base, &[45]]);
/// assert_eq!(merged, [5, 10, 20, 25, 30, 40, 45]);
/// ```
pub fn splice_merge_vec(slices: &[&[u64]]) -> Vec<u64> {
    let mut out = Vec::with_capacity(total_len(slices));
    splice_merge_into(slices, &mut out);
    out
}

/// The sorted union of sorted `slices` as a fresh shared slice — the
/// allocation a sealed run takes over as is (`Vec<u64>` → `Arc<[u64]>`
/// would copy the merged keys once more).
pub fn splice_merge_arc(slices: &[&[u64]]) -> Arc<[u64]> {
    let mut out: Arc<[u64]> = std::iter::repeat_n(0u64, total_len(slices)).collect();
    splice_merge_slice(
        slices,
        Arc::get_mut(&mut out).expect("a fresh Arc has one owner"),
    );
    out
}

/// Write the sorted union of sorted `slices` over `out`, which holds
/// exactly as many keys as the slices do together: a fold merges its
/// new base this way straight into the array its `KeyStore` will own.
pub(crate) fn splice_merge_slice(slices: &[&[u64]], out: &mut [u64]) {
    let mut unwritten = Unwritten(out);
    splice_merge_into(slices, &mut unwritten);
    debug_assert!(unwritten.0.is_empty(), "out is longer than the slices");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_slices_and_empty_slices() {
        assert_eq!(splice_merge_vec(&[]), Vec::<u64>::new());
        assert_eq!(splice_merge_vec(&[&[], &[]]), Vec::<u64>::new());
        assert_eq!(splice_merge_vec(&[&[], &[7], &[]]), vec![7]);
        assert_eq!(&*splice_merge_arc(&[]), &[] as &[u64]);
    }

    #[test]
    fn small_keys_below_above_and_between_the_spine() {
        let spine: Vec<u64> = (1..=100u64).map(|i| i * 10).collect();
        let got = splice_merge_arc(&[&[1, 2], &spine, &[15, 995, 2000, u64::MAX], &[999]]);
        let mut want = spine.clone();
        want.extend_from_slice(&[1, 2, 15, 995, 2000, u64::MAX, 999]);
        want.sort_unstable();
        assert_eq!(&*got, want.as_slice());
    }

    #[test]
    fn overlap_surfaces_as_an_equal_adjacent_pair() {
        assert_eq!(
            splice_merge_vec(&[&[10, 20], &[5, 20]]),
            vec![5, 10, 20, 20]
        );
    }

    #[test]
    fn count_past_matches_partition_point() {
        let s: Vec<u64> = (0..200u64).map(|i| i * 3).collect();
        for len in [0usize, 1, 2, 3, 7, 8, 9, 200] {
            for key in 0..610u64 {
                assert_eq!(
                    count_past(&s[..len], key),
                    s[..len].partition_point(|&k| k <= key),
                    "len {len} key {key}"
                );
            }
        }
    }
}
